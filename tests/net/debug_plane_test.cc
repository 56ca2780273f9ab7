// The debug plane's gate and payloads. Off by default, the three /debug/*
// routes must be byte-indistinguishable from any unknown endpoint (the
// introspection plane must not change the public surface). Enabled, each
// serves strict JSON (net/json.h parses it — the same parser that rejects
// hostile wire input, so "parseable" is a real property, not vibes), and
// /debug/config carries per-field provenance that flips from "default" to
// "set" when an option was actually set.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/query_builder.h"
#include "api/service.h"
#include "core/vchain.h"
#include "net/http.h"
#include "net/json.h"
#include "net/sp_server.h"

namespace vchain::net {
namespace {

using api::Service;
using api::ServiceOptions;
using chain::Object;

constexpr uint64_t kBaseTime = 1000;

std::unique_ptr<Service> SmallService(uint64_t canary_sample_every = 0,
                                      uint64_t trace_sample_every = 1) {
  ServiceOptions opts;
  opts.engine = api::EngineKind::kMockAcc1;
  opts.config.mode = core::IndexMode::kBoth;
  opts.config.schema = chain::NumericSchema{2, 8};
  opts.oracle_seed = 2026;
  opts.canary_sample_every = canary_sample_every;
  opts.trace_sample_every = trace_sample_every;
  auto svc = Service::Open(std::move(opts)).TakeValue();
  for (size_t b = 0; b < 3; ++b) {
    std::vector<Object> objs(2);
    objs[0].id = b * 2;
    objs[1].id = b * 2 + 1;
    for (Object& o : objs) {
      o.timestamp = kBaseTime + b;
      o.numeric = {10, 20};
      o.keywords = {"Sedan"};
    }
    EXPECT_TRUE(svc->Append(std::move(objs), kBaseTime + b).ok());
  }
  return svc;
}

Result<HttpResponse> Get(uint16_t port, const std::string& path) {
  HttpConnection conn({.host = "127.0.0.1", .port = port});
  return conn.RoundTrip("GET", path, "", "text/plain");
}

TEST(DebugPlaneTest, DisabledRoutesAreIndistinguishableFrom404) {
  auto svc = SmallService();
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  ASSERT_FALSE(sopts.debug_endpoints);  // off is the default
  auto server = SpServer::Start(svc.get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = server.value()->port();

  auto unknown = Get(port, "/no/such/route");
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  ASSERT_EQ(unknown.value().status, 404);
  for (const char* path :
       {"/debug/traces", "/debug/events", "/debug/config"}) {
    auto resp = Get(port, path);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 404) << path;
    EXPECT_EQ(resp.value().body, unknown.value().body) << path;
    EXPECT_EQ(resp.value().content_type, unknown.value().content_type);
  }
  server.value()->Stop();
}

TEST(DebugPlaneTest, EnabledRoutesServeStrictJson) {
  auto svc = SmallService(/*canary_sample_every=*/1);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  sopts.debug_endpoints = true;
  auto server = SpServer::Start(svc.get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = server.value()->port();

  // Give the ring and recorder something to show.
  auto q = api::QueryBuilder()
               .Window(kBaseTime, kBaseTime + 2)
               .AllOf({"Sedan"})
               .Build();
  ASSERT_TRUE(svc->Query(q).ok());
  svc->DrainCanary();

  auto traces = Get(port, "/debug/traces");
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  ASSERT_EQ(traces.value().status, 200);
  EXPECT_EQ(traces.value().content_type, "application/json");
  auto traces_json = ParseJson(traces.value().body);
  ASSERT_TRUE(traces_json.ok()) << traces_json.status().ToString();
  const JsonValue* offered = traces_json.value().Find("offered");
  ASSERT_NE(offered, nullptr);
  EXPECT_GE(offered->as_number(), 1u);  // the query above was retained
  const JsonValue* trace_list = traces_json.value().Find("traces");
  ASSERT_NE(trace_list, nullptr);
  ASSERT_TRUE(trace_list->is_array());
  ASSERT_FALSE(trace_list->items().empty());
  EXPECT_NE(trace_list->items()[0].Find("spans"), nullptr);

  auto events = Get(port, "/debug/events");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events.value().status, 200);
  auto events_json = ParseJson(events.value().body);
  ASSERT_TRUE(events_json.ok()) << events_json.status().ToString();
  ASSERT_NE(events_json.value().Find("next_seq"), nullptr);
  ASSERT_NE(events_json.value().Find("events"), nullptr);

  auto config = Get(port, "/debug/config");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config.value().status, 200);
  auto config_json = ParseJson(config.value().body);
  ASSERT_TRUE(config_json.ok()) << config_json.status().ToString();
  const JsonValue* service = config_json.value().Find("service");
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(service->is_object());
  const JsonValue* chain = config_json.value().Find("chain");
  ASSERT_NE(chain, nullptr);

  // Provenance: canary_sample_every was set to a non-default value above,
  // engine was set explicitly; canary_max_pending rode its default.
  auto provenance = [&](const JsonValue* tier, const char* field) {
    const JsonValue* f = tier->Find(field);
    EXPECT_NE(f, nullptr) << field;
    if (f == nullptr) return std::string();
    const JsonValue* p = f->Find("provenance");
    EXPECT_NE(p, nullptr) << field;
    return p != nullptr ? p->as_string() : std::string();
  };
  EXPECT_EQ(provenance(service, "canary_sample_every"), "set");
  EXPECT_EQ(provenance(service, "engine"), "set");
  EXPECT_EQ(provenance(service, "canary_max_pending"), "default");

  // The debug plane is read-only.
  HttpConnection conn({.host = "127.0.0.1", .port = port});
  auto post = conn.RoundTrip("POST", "/debug/traces", "{}", "application/json");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post.value().status, 405);

  server.value()->Stop();
}

}  // namespace
}  // namespace vchain::net
