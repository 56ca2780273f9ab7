// sp_query — a light user querying a remote SP from a separate process.
//
// Connects to a vchain_spd instance, syncs and validates block headers,
// submits one Boolean range query, verifies the response locally against
// those headers, and prints the results plus the SHA-256 of the response
// bytes. Exit 0 only when everything — transport, decode, verification,
// and an optional expected-bytes hash — checks out, which is what the CI
// e2e job asserts.
//
//   $ ./sp_query --port 8080 --demo-query --expect-hash <hex>
//   $ ./sp_query --port 8080 --window 1700000000 1700400000 \
//                --range 0 200 260 --all Sedan --any Benz --any BMW
//
// Flags: --host H --port N --engine KIND    (must match the SP)
//        --demo-query                       use the canonical demo query
//        --window TS TE | --range DIM LO HI | --all KW | --any KW (repeat)
//        --expect-hash HEX                  fail unless response hash matches
//        --timing                           print client wall time + the SP's
//                                           per-stage trace (X-Vchain-Trace)
//        --trace                            render the SP's span tree
//                                           (causal, indented, with per-span
//                                           counts) instead of the one-line
//                                           trace JSON
//        --retries N                        attempts per request (default 3;
//                                           1 disables retry)
//        --backoff-ms N                     initial retry backoff (default 100)
//        --subscribe N                      after the query: register the same
//                                           query as a standing subscription
//                                           and long-poll /events until N
//                                           notifications arrive, each decoded
//                                           from its canonical bytes and
//                                           verified against the header chain
//                                           (the SP must be mining, e.g.
//                                           vchain_spd --mine-every)
//        --subscribe-timeout-s N            give up on the subscription leg
//                                           after N seconds (default 60)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/json.h"
#include "net/sp_client.h"
#include "net/wire.h"
#include "spd_common.h"

namespace {

/// --window/--range consume the following N positional values, so collect
/// raw argv once here instead of teaching Flags about arities.
bool BuildQueryFromFlags(int argc, char** argv, vchain::core::Query* out) {
  vchain::QueryBuilder builder;
  bool any_flag = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_u64 = [&](uint64_t* v) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      *v = std::strtoull(argv[++i], &end, 10);
      return end != nullptr && *end == '\0';
    };
    if (arg == "--window") {
      uint64_t ts, te;
      if (!next_u64(&ts) || !next_u64(&te)) return false;
      builder.Window(ts, te);
      any_flag = true;
    } else if (arg == "--range") {
      uint64_t dim, lo, hi;
      if (!next_u64(&dim) || !next_u64(&lo) || !next_u64(&hi)) return false;
      builder.Range(static_cast<uint32_t>(dim), lo, hi);
      any_flag = true;
    } else if (arg == "--all") {
      if (i + 1 >= argc) return false;
      builder.AllOf({argv[++i]});
      any_flag = true;
    } else if (arg == "--any") {
      if (i + 1 >= argc) return false;
      std::vector<std::string> clause;
      std::string kws = argv[++i];
      size_t start = 0;
      while (start <= kws.size()) {
        size_t comma = kws.find(',', start);
        if (comma == std::string::npos) comma = kws.size();
        if (comma > start) clause.push_back(kws.substr(start, comma - start));
        start = comma + 1;
      }
      if (clause.empty()) return false;
      builder.AnyOf(std::move(clause));
      any_flag = true;
    }
  }
  if (!any_flag) return false;
  *out = builder.Build();
  return true;
}

/// Render the server's span tree (the "spans" array inside the
/// X-Vchain-Trace JSON) as an indented causal tree, children under their
/// parent in start order, with each span's notes as trailing key=value
/// counts. Returns false when the header carries no parseable span tree
/// (old server, or the tree was dropped) — caller falls back to raw JSON.
bool PrintSpanTree(const std::string& trace_json) {
  auto parsed = vchain::net::ParseJson(trace_json);
  if (!parsed.ok() || !parsed.value().is_object()) return false;
  const vchain::net::JsonValue* spans = parsed.value().Find("spans");
  if (spans == nullptr || !spans->is_array() || spans->items().empty()) {
    return false;
  }
  const auto& items = spans->items();
  std::printf("server span tree:\n");
  // Spans are emitted in Begin() order, so children always follow their
  // parent; a single pass with a recursive print keeps start order.
  auto num = [](const vchain::net::JsonValue* v) {
    return v != nullptr && v->is_number() ? v->as_number() : 0;
  };
  std::vector<char> printed(items.size(), 0);
  // Recursive lambda via explicit self-reference.
  auto print_span = [&](auto&& self, size_t idx, int depth) -> void {
    const vchain::net::JsonValue& span = items[idx];
    printed[idx] = 1;
    const vchain::net::JsonValue* name = span.Find("name");
    std::printf("%*s%-*s %10.3f ms", 2 * depth, "",
                depth < 12 ? 28 - 2 * depth : 4,
                name != nullptr && name->is_string() ? name->as_string().c_str()
                                                     : "?",
                static_cast<double>(num(span.Find("duration_ns"))) * 1e-6);
    for (const auto& [key, value] : span.members()) {
      if (key == "id" || key == "parent" || key == "name" ||
          key == "start_ns" || key == "duration_ns" || !value.is_number()) {
        continue;
      }
      std::printf("  %s=%llu", key.c_str(),
                  static_cast<unsigned long long>(value.as_number()));
    }
    std::printf("\n");
    const uint64_t id = num(span.Find("id"));
    for (size_t j = idx + 1; j < items.size(); ++j) {
      if (!printed[j] && num(items[j].Find("parent")) == id) {
        self(self, j, depth + 1);
      }
    }
  };
  for (size_t i = 0; i < items.size(); ++i) {
    // Roots first (parent 0); orphans of dropped spans surface at top level
    // too, so a truncated tree still prints every retained span.
    if (!printed[i] && num(items[i].Find("parent")) == 0) {
      print_span(print_span, i, 1);
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (!printed[i]) print_span(print_span, i, 1);
  }
  const vchain::net::JsonValue* dropped =
      parsed.value().Find("spans_dropped");
  if (dropped != nullptr && dropped->is_number() &&
      dropped->as_number() > 0) {
    std::printf("  (+%llu spans dropped at the server's cap)\n",
                static_cast<unsigned long long>(dropped->as_number()));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  spd::Flags flags(argc, argv);
  vchain::EngineKind engine;
  if (!spd::ParseEngineFlag(flags, &engine)) return 2;

  vchain::core::Query q;
  if (flags.Has("--demo-query")) {
    q = spd::DemoQuery();
  } else if (!BuildQueryFromFlags(argc, argv, &q)) {
    std::fprintf(stderr,
                 "no query: pass --demo-query or --window/--range/--all/--any "
                 "flags\n");
    return 2;
  }

  vchain::net::SpClient::Options copts;
  copts.host = flags.Get("--host", "127.0.0.1");
  copts.port =
      static_cast<uint16_t>(std::stoul(flags.Get("--port", "8080")));
  copts.verify = spd::DemoOptions(engine);
  // Resilience knobs: transient failures (connect refused during an SP
  // restart, 429/503 back-off answers) are retried with jittered
  // exponential backoff before anything is reported as an error.
  copts.retry.max_attempts =
      static_cast<int>(std::stoul(flags.Get("--retries", "3")));
  copts.retry.initial_backoff_ms =
      static_cast<int>(std::stoul(flags.Get("--backoff-ms", "100")));
  auto connected = vchain::net::SpClient::Connect(copts);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  auto client = connected.TakeValue();

  vchain::Status health = client->Healthz();
  if (!health.ok()) {
    std::fprintf(stderr, "healthz failed: %s\n", health.ToString().c_str());
    return 1;
  }

  // 1. Validated header sync: the client's own light client re-checks
  // heights, hash linkage, timestamps, and consensus proofs.
  vchain::chain::LightClient light = client->NewLightClient();
  vchain::Status synced = client->SyncHeaders(&light);
  if (!synced.ok()) {
    std::fprintf(stderr, "header sync failed: %s\n",
                 synced.ToString().c_str());
    return 1;
  }
  std::printf("synced %zu headers\n", light.Height());

  // 2. The query, over the wire. --timing/--trace additionally opt into the
  // SP's trace header; the response bytes are identical either way.
  std::printf("query: %s\n", vchain::net::QueryToJson(q).c_str());
  const bool timing = flags.Has("--timing");
  const bool render_trace = flags.Has("--trace");
  std::string server_trace;
  uint64_t t0 = vchain::metrics::MonotonicNanos();
  auto result =
      client->Query(q, timing || render_trace ? &server_trace : nullptr);
  uint64_t wall_ns = vchain::metrics::MonotonicNanos() - t0;
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (timing) {
    std::printf("client_wall_ms=%.3f\n",
                static_cast<double>(wall_ns) * 1e-6);
    std::printf("server_trace=%s\n",
                server_trace.empty() ? "(none)" : server_trace.c_str());
  }
  if (render_trace &&
      (server_trace.empty() || !PrintSpanTree(server_trace))) {
    std::printf("server span tree: (none)\n");
  }
  std::printf("received %zu result(s), VO = %zu bytes\n",
              result.value().objects.size(), result.value().vo_bytes);
  for (const vchain::chain::Object& o : result.value().objects) {
    std::printf("  %s\n", o.ToString().c_str());
  }
  std::string hash = spd::HexDigest(result.value().response_bytes);
  std::printf("response_hash=%s\n", hash.c_str());

  // 3. Local verification — nothing past the socket is trusted without it.
  vchain::Status verified = client->Verify(q, result.value(), light);
  std::printf("verification: %s\n", verified.ToString().c_str());
  if (!verified.ok()) return 1;

  std::string expect = flags.Get("--expect-hash", "");
  if (!expect.empty() && expect != hash) {
    std::fprintf(stderr,
                 "response bytes differ from the in-process answer:\n"
                 "  expected %s\n  received %s\n",
                 expect.c_str(), hash.c_str());
    return 1;
  }

  // 4. Optional subscription leg: the same query as a standing
  // subscription. Every notification is decoded from its canonical bytes
  // and verified before it counts — a lying SP fails the leg, exactly like
  // a tampered query response fails step 3.
  size_t want = std::stoul(flags.Get("--subscribe", "0"));
  if (want > 0) {
    auto sub = client->Subscribe(q);
    if (!sub.ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   sub.status().ToString().c_str());
      return 1;
    }
    std::printf("subscribed id=%u cursor=%llu\n", sub.value().id(),
                static_cast<unsigned long long>(sub.value().cursor()));
    std::fflush(stdout);
    uint64_t timeout_s =
        std::stoull(flags.Get("--subscribe-timeout-s", "60"));
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(static_cast<int64_t>(timeout_s));
    size_t got = 0;
    while (got < want && std::chrono::steady_clock::now() < deadline) {
      auto events = sub.value().Poll(&light, /*wait_ms=*/1000);
      if (!events.ok()) {
        std::fprintf(stderr, "poll failed: %s\n",
                     events.status().ToString().c_str());
        return 1;
      }
      for (const vchain::api::SubscriptionEvent& ev : events.value()) {
        std::printf("notification height=%llu results=%zu hash=%s\n",
                    static_cast<unsigned long long>(ev.height),
                    ev.objects.size(),
                    spd::HexDigest(ev.notification_bytes).c_str());
        if (++got >= want) break;
      }
      std::fflush(stdout);
    }
    if (got < want) {
      std::fprintf(stderr,
                   "subscription timed out: %zu/%zu notifications in %llus "
                   "(is the SP mining? vchain_spd --mine-every)\n",
                   got, want, static_cast<unsigned long long>(timeout_s));
      return 1;
    }
    vchain::Status bye = sub.value().Unsubscribe();
    if (!bye.ok()) {
      std::fprintf(stderr, "unsubscribe failed: %s\n",
                   bye.ToString().c_str());
      return 1;
    }
    std::printf("subscription: verified %zu notification(s)\n", got);
  }
  return 0;
}
