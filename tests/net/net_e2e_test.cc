// Loopback end-to-end: a real SpServer on 127.0.0.1 serving a real Service,
// queried by SpClient over actual sockets, for all four engines.
//
// The contract under test is the paper's: the client trusts nothing past
// the socket. Headers are re-validated by the client's own LightClient,
// response bytes are verified against those headers, and — the reproduction
// invariant — the bytes that cross the wire are bit-identical to what an
// in-process Service::Query returns for the same query.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/rand.h"
#include "core/vchain.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "net/wire.h"

namespace vchain::net {
namespace {

using api::EngineKind;
using api::QueryResult;
using api::Service;
using api::ServiceOptions;
using chain::Object;
using core::Query;

template <typename Engine>
struct KindOf;
template <>
struct KindOf<accum::MockAcc1Engine> {
  static constexpr EngineKind value = EngineKind::kMockAcc1;
};
template <>
struct KindOf<accum::MockAcc2Engine> {
  static constexpr EngineKind value = EngineKind::kMockAcc2;
};
template <>
struct KindOf<accum::Acc1Engine> {
  static constexpr EngineKind value = EngineKind::kAcc1;
};
template <>
struct KindOf<accum::Acc2Engine> {
  static constexpr EngineKind value = EngineKind::kAcc2;
};

/// SSE responses are close-delimited (no Content-Length), which
/// HttpConnection rejects by design — the stream test speaks raw TCP.
class RawSseSocket {
 public:
  explicit RawSseSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawSseSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSseSocket(const RawSseSocket&) = delete;
  RawSseSocket& operator=(const RawSseSocket&) = delete;

  bool connected() const { return connected_; }

  void Send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Read (appending to an internal carry) until `token` has been seen
  /// past the previous call's consumption point, EOF, or timeout; returns
  /// everything up to and including the token's line context.
  std::string ReadUntil(const std::string& token, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char buf[4096];
    while (carry_.find(token) == std::string::npos) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count();
      if (left <= 0) break;
      struct pollfd pfd = {fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      carry_.append(buf, static_cast<size_t>(n));
    }
    size_t pos = carry_.find(token);
    if (pos == std::string::npos) {
      std::string all;
      all.swap(carry_);
      return all;
    }
    std::string out = carry_.substr(0, pos + token.size());
    carry_.erase(0, pos + token.size());
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string carry_;
};

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

ServiceOptions MakeOptions(EngineKind kind) {
  ServiceOptions opts;
  opts.engine = kind;
  opts.config.mode = core::IndexMode::kBoth;
  opts.config.schema = chain::NumericSchema{/*dims=*/2, /*bits=*/8};
  opts.config.skiplist_size = 2;
  opts.oracle_seed = 2026;  // public trusted setup, shared out of band
  opts.acc_params.universe_bits = 16;
  return opts;
}

/// SP-side service with a small deterministic chain mined in.
std::unique_ptr<Service> MakeServedService(EngineKind kind,
                                           bool tracing = true) {
  ServiceOptions opts = MakeOptions(kind);
  opts.tracing = tracing;
  auto svc = Service::Open(opts).TakeValue();
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  Rng rng(42);
  uint64_t id = 0;
  for (size_t b = 0; b < 8; ++b) {
    uint64_t ts = kBaseTime + b * kTimeStep;
    std::vector<Object> objs;
    for (size_t i = 0; i < 3; ++i) {
      Object o;
      o.id = id++;
      o.timestamp = ts;
      o.numeric = {rng.Below(256), rng.Below(256)};
      o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
      objs.push_back(std::move(o));
    }
    EXPECT_TRUE(svc->Append(std::move(objs), ts).ok());
  }
  return svc;
}

Query MatchyQuery() {
  return api::QueryBuilder()
      .Window(kBaseTime, kBaseTime + 7 * kTimeStep)
      .Range(0, 10, 200)
      .AnyOf({"Sedan", "Van"})
      .Build();
}

template <typename Engine>
class NetE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = MakeServedService(KindOf<Engine>::value);
    SpServer::Options sopts;
    sopts.http.num_threads = 2;
    auto server = SpServer::Start(service_.get(), sopts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.TakeValue();

    SpClient::Options copts;
    copts.port = server_->port();
    copts.verify = MakeOptions(KindOf<Engine>::value);
    auto client = SpClient::Connect(copts);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = client.TakeValue();
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<SpServer> server_;
  std::unique_ptr<SpClient> client_;
};

using AllEngines = ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                                    accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(NetE2eTest, AllEngines);

// Healthz() fails unless X-Vchain-Engine names the client's engine; the
// chain height is read from the /metrics scrape.
TYPED_TEST(NetE2eTest, HealthzAndMetrics) {
  EXPECT_TRUE(this->client_->Healthz().ok());
  HttpConnection conn({.host = "127.0.0.1", .port = this->server_->port()});
  auto resp = conn.RoundTrip("GET", "/metrics", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().status, 200);
  EXPECT_NE(resp.value().body.find("\nvchain_service_blocks 8\n"),
            std::string::npos);
}

TYPED_TEST(NetE2eTest, HeaderSyncValidatesTheWholeChain) {
  chain::LightClient light = this->client_->NewLightClient();
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  EXPECT_EQ(light.Height(), 8u);

  // The wire headers are the service's own headers, byte for byte.
  chain::LightClient direct;
  ASSERT_TRUE(this->service_->SyncLightClient(&direct).ok());
  for (uint64_t h = 0; h < 8; ++h) {
    EXPECT_EQ(light.HeaderAt(h), direct.HeaderAt(h));
  }

  // Re-syncing from the current height is a no-op, not an error.
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  EXPECT_EQ(light.Height(), 8u);
}

TYPED_TEST(NetE2eTest, WireBytesAreBitIdenticalToInProcess) {
  Query q = MatchyQuery();
  auto wire = this->client_->Query(q);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto local = this->service_->Query(q);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(wire.value().response_bytes, local.value().response_bytes);
  EXPECT_EQ(wire.value().vo_bytes, local.value().vo_bytes);
  ASSERT_EQ(wire.value().objects.size(), local.value().objects.size());
  for (size_t i = 0; i < wire.value().objects.size(); ++i) {
    EXPECT_EQ(wire.value().objects[i], local.value().objects[i]);
  }
}

// The observability invariant: opting into stage tracing changes response
// *headers* only — the body is the canonical encoding, bit for bit.
TYPED_TEST(NetE2eTest, TracingNeverChangesTheResponseBytes) {
  Query q = MatchyQuery();
  auto untraced = this->client_->Query(q);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  std::string trace_json;
  auto traced = this->client_->Query(q, &trace_json);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced.value().response_bytes, untraced.value().response_bytes);
  EXPECT_EQ(traced.value().vo_bytes, untraced.value().vo_bytes);
  ASSERT_FALSE(trace_json.empty()) << "SP must answer X-Vchain-Trace: 1";
  EXPECT_NE(trace_json.find("\"total_ns\":"), std::string::npos) << trace_json;
  EXPECT_NE(trace_json.find("\"prove_ns\":"), std::string::npos) << trace_json;
}

// The traced stages are non-overlapping and cover the processor+serialize
// path: their sum must track the server-side total. The acceptance bound
// is ~10%, with an absolute floor so scheduler noise on a fast query
// cannot flake CI.
TYPED_TEST(NetE2eTest, TraceStagesSumToTotal) {
  Query q = MatchyQuery();
  core::QueryTrace trace;
  auto local = this->service_->Query(q, &trace);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const core::StageTimes st = trace.Stages();
  ASSERT_GT(st.total_ns, 0u);
  uint64_t stage_sum = st.StageSumNs();
  ASSERT_GT(stage_sum, 0u);
  EXPECT_LE(stage_sum, st.total_ns)
      << "stages cannot exceed the enclosing total";
  uint64_t slack = std::max<uint64_t>(st.total_ns / 10, 200000);  // 200 µs
  EXPECT_GE(stage_sum + slack, st.total_ns)
      << "untraced gap too large: total=" << st.total_ns
      << " stage_sum=" << stage_sum;
  // The work counts describe this workload: 8 blocks walked, results found.
  EXPECT_GT(trace.blocks_walked, 0u);
  EXPECT_GT(trace.results_matched, 0u);
  EXPECT_EQ(trace.results_matched, local.value().objects.size());
}

TYPED_TEST(NetE2eTest, ClientVerifiesAndCatchesTampering) {
  chain::LightClient light = this->client_->NewLightClient();
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  Query q = MatchyQuery();
  auto result = this->client_->Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().objects.empty());
  ASSERT_TRUE(this->client_->Verify(q, result.value(), light).ok());

  // Any flipped byte in what arrived must be caught locally.
  QueryResult tampered = result.value();
  tampered.response_bytes[tampered.response_bytes.size() / 2] ^= 0x01;
  Status bad = this->client_->Verify(q, tampered, light);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsVerifyFailed() || bad.IsCorruption()) << bad.ToString();
}

TYPED_TEST(NetE2eTest, EmptyWindowIsAVerifiableEmptyAnswer) {
  chain::LightClient light = this->client_->NewLightClient();
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  Query q = api::QueryBuilder()
                .Window(kBaseTime + 1000, kBaseTime + 2000)
                .AnyOf({"Sedan"})
                .Build();
  auto result = this->client_->Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().objects.empty());
  EXPECT_TRUE(this->client_->Verify(q, result.value(), light).ok());
}

TYPED_TEST(NetE2eTest, InvalidQueryComesBackInvalidArgument) {
  Query inverted = api::QueryBuilder().Range(0, 200, 100).Build();
  auto result = this->client_->Query(inverted);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
}

TYPED_TEST(NetE2eTest, BatchMixesSuccessesAndFailures) {
  chain::LightClient light = this->client_->NewLightClient();
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  std::vector<Query> qs = {
      MatchyQuery(),
      api::QueryBuilder().Range(0, 200, 100).Build(),  // inverted: fails
      api::QueryBuilder().Window(0, kBaseTime - 1).AnyOf({"Benz"}).Build(),
  };
  auto batch = this->client_->QueryBatch(qs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), 3u);

  ASSERT_TRUE(batch.value()[0].ok());
  EXPECT_TRUE(
      this->client_->Verify(qs[0], batch.value()[0].value(), light).ok());
  auto local = this->service_->Query(qs[0]);
  EXPECT_EQ(batch.value()[0].value().response_bytes,
            local.value().response_bytes);

  EXPECT_FALSE(batch.value()[1].ok());
  EXPECT_TRUE(batch.value()[1].status().IsInvalidArgument());

  ASSERT_TRUE(batch.value()[2].ok());
  EXPECT_TRUE(batch.value()[2].value().objects.empty());
  EXPECT_TRUE(
      this->client_->Verify(qs[2], batch.value()[2].value(), light).ok());
}

TYPED_TEST(NetE2eTest, QueriesKeepWorkingWhileTheChainGrows) {
  chain::LightClient light = this->client_->NewLightClient();
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  // Mine a new block between two wire queries; the second query + a header
  // re-sync must observe and verify the longer chain.
  std::vector<Object> objs(1);
  objs[0].id = 999;
  objs[0].timestamp = kBaseTime + 8 * kTimeStep;
  objs[0].numeric = {50, 60};
  objs[0].keywords = {"Sedan", "Benz"};
  ASSERT_TRUE(
      this->service_->Append(std::move(objs), kBaseTime + 8 * kTimeStep).ok());

  Query q = api::QueryBuilder()
                .Window(kBaseTime + 8 * kTimeStep, kBaseTime + 8 * kTimeStep)
                .AnyOf({"Sedan"})
                .Build();
  auto result = this->client_->Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().objects.size(), 1u);
  EXPECT_EQ(result.value().objects[0].id, 999u);
  ASSERT_TRUE(this->client_->SyncHeaders(&light).ok());
  EXPECT_EQ(light.Height(), 9u);
  EXPECT_TRUE(this->client_->Verify(q, result.value(), light).ok());
}

// The reproduction invariant, extended to the streaming path: a
// notification delivered over the wire is byte-identical to what the
// in-process cursor read returns for the same subscription, and both verify
// against the client's own validated headers.
TYPED_TEST(NetE2eTest, WireNotificationVerifiesBitIdenticallyToInProcess) {
  auto sub = this->client_->Subscribe(MatchyQuery());
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  uint64_t start_cursor = sub.value().cursor();
  EXPECT_EQ(start_cursor, 8u);  // subscribed at tip; events start here

  // Mine a block that matches the standing query.
  std::vector<Object> objs(1);
  objs[0].id = 999;
  objs[0].timestamp = kBaseTime + 8 * kTimeStep;
  objs[0].numeric = {50, 60};
  objs[0].keywords = {"Sedan", "Benz"};
  ASSERT_TRUE(
      this->service_->Append(std::move(objs), kBaseTime + 8 * kTimeStep).ok());

  // In-process read of the same subscription stream.
  auto local = this->service_->EventsSince(sub.value().id(), start_cursor, 64);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_EQ(local.value().events.size(), 1u);
  EXPECT_EQ(local.value().events[0].height, 8u);

  // Wire read: Poll decodes, header-syncs, and verifies before returning.
  chain::LightClient light = this->client_->NewLightClient();
  auto events = sub.value().Poll(&light, /*wait_ms=*/0);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events.value().size(), 1u);
  const auto& ev = events.value()[0];
  EXPECT_EQ(ev.height, 8u);
  ASSERT_EQ(ev.objects.size(), 1u);
  EXPECT_EQ(ev.objects[0].id, 999u);

  // Bit identity: the bytes that crossed the socket are the bytes the
  // service holds, and both verify against an independently synced client.
  EXPECT_EQ(ev.notification_bytes, local.value().events[0].notification_bytes);
  chain::LightClient direct;
  ASSERT_TRUE(this->service_->SyncLightClient(&direct).ok());
  EXPECT_TRUE(this->service_
                  ->VerifyNotification(sub.value().query(),
                                       local.value().events[0], direct)
                  .ok());
  EXPECT_TRUE(
      this->service_->VerifyNotification(sub.value().query(), ev, light).ok());

  // The cursor advanced: a second poll is empty, not a redelivery.
  auto again = sub.value().Poll(&light, /*wait_ms=*/0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().empty());

  EXPECT_TRUE(sub.value().Unsubscribe().ok());
  // After unsubscribe the stream is gone, not silently empty.
  auto dead = sub.value().Poll(&light, /*wait_ms=*/0);
  EXPECT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsNotFound()) << dead.status().ToString();
}

// Several mined blocks arrive as one ordered, verified batch over the wire.
TYPED_TEST(NetE2eTest, PollDeliversMultipleBlocksInOrder) {
  auto sub = this->client_->Subscribe(MatchyQuery());
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  for (int b = 0; b < 3; ++b) {
    uint64_t ts = kBaseTime + (8 + b) * kTimeStep;
    std::vector<Object> objs(1);
    objs[0].id = 2000 + b;
    objs[0].timestamp = ts;
    objs[0].numeric = {50, 60};
    objs[0].keywords = {"Van", "Audi"};
    ASSERT_TRUE(this->service_->Append(std::move(objs), ts).ok());
  }

  chain::LightClient light = this->client_->NewLightClient();
  auto events = sub.value().Poll(&light, /*wait_ms=*/0);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events.value().size(), 3u);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(events.value()[b].height, 8u + b);
    ASSERT_EQ(events.value()[b].objects.size(), 1u);
    EXPECT_EQ(events.value()[b].objects[0].id, 2000u + b);
  }
}
// (to - from + 1 overflows to 0; the clamp must not be skipped).
TEST(NetE2eRawTest, HeaderPageCapSurvivesFullRangeRequest) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  sopts.max_headers_per_page = 2;  // chain has 8 blocks
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  auto resp = conn.RoundTrip(
      "GET", "/headers?from=0&to=18446744073709551615", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().status, 200);
  auto page = DecodeHeaderPage(
      ByteSpan(reinterpret_cast<const uint8_t*>(resp.value().body.data()),
               resp.value().body.size()));
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page.value().size(), 2u);  // capped, not the whole chain
}

// GET /metrics serves a Prometheus exposition covering every tier, and the
// service-state gauges the SpServer's collector refreshes at scrape time.
TEST(NetE2eRawTest, MetricsEndpointCoversAllTiers) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  // Serve one query first so the service-tier histograms have samples.
  auto q = conn.RoundTrip("POST", "/query", QueryToJson(MatchyQuery()),
                          "application/json");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().status, 200);
  auto resp = conn.RoundTrip("GET", "/metrics", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().status, 200);
  const std::string& text = resp.value().body;
  // One family from each tier, plus the scrape-time service gauges.
  EXPECT_NE(text.find("# TYPE vchain_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vchain_service_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find(
                "vchain_service_query_stage_seconds_bucket{stage=\"prove\""),
            std::string::npos);
  EXPECT_NE(text.find("vchain_service_blocks 8"), std::string::npos);
  EXPECT_NE(text.find("vchain_service_degraded 0"), std::string::npos);
  EXPECT_NE(text.find("vchain_http_route_requests_total{route=\"/query\"}"),
            std::string::npos);
  // Stopping the server deregisters its collector; a later registry write
  // must not touch the (about-to-die) service.
  server->Stop();
  server.reset();
  svc.reset();
  std::string after = metrics::Registry::Default().WriteText();
  EXPECT_FALSE(after.empty());  // no use-after-free, exposition still sane
}

// A server given its own registry serves its route counters and service
// gauges from it — the registry is the server's one stats source.
TEST(NetE2eRawTest, InjectedRegistryServesRouteCountersAndServiceGauges) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  metrics::Registry registry;
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  sopts.http.registry = &registry;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  auto health = conn.RoundTrip("GET", "/healthz", "", "text/plain");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  auto resp = conn.RoundTrip("GET", "/metrics", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().status, 200);
  const std::string& text = resp.value().body;
  for (const char* line :
       {"vchain_http_route_requests_total{route=\"/healthz\"} 1",
        "vchain_service_blocks 8", "vchain_service_degraded 0",
        "vchain_service_durable 0", "vchain_service_sub_checkpoint_seq 0",
        "vchain_service_proof_cache_lru_evictions 0",
        "vchain_service_block_cache_evictions 0"}) {
    EXPECT_NE(text.find("\n" + std::string(line) + "\n"), std::string::npos)
        << line;
  }
  // Debug routes are off: not even a zero counter names them.
  EXPECT_EQ(text.find("route=\"/debug\""), std::string::npos);
  server->Stop();
}

/// A wire client for the mock-acc2 service behind `server`.
std::unique_ptr<SpClient> ConnectMockAcc2(const SpServer& server) {
  SpClient::Options copts;
  copts.port = server.port();
  copts.verify = MakeOptions(EngineKind::kMockAcc2);
  return SpClient::Connect(copts).TakeValue();
}

// The trace header's flat keys are a wire contract (perfbench reads the
// first `"<key>":` match), so they must all precede the span array; and the
// stage histograms carry exactly the six primary stages as labels.
TEST(NetE2eRawTest, TraceHeaderKeysPrecedeSpansAndStageLabelsAreTheSix) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  auto client = ConnectMockAcc2(*server);
  std::string trace_json;
  ASSERT_TRUE(client->Query(MatchyQuery(), &trace_json).ok());
  const size_t spans_at = trace_json.find("\"spans\":");
  ASSERT_NE(spans_at, std::string::npos) << trace_json;
  for (const char* key :
       {"total_ns", "setup_ns", "window_lookup_ns", "match_walk_ns",
        "aggregate_ns", "prove_ns", "serialize_ns", "msm_ns",
        "blocks_walked", "skips_taken", "nodes_visited", "results_matched",
        "proofs_computed", "proof_cache_hits", "proof_cache_misses"}) {
    const size_t at = trace_json.find("\"" + std::string(key) + "\":");
    ASSERT_NE(at, std::string::npos) << key << " in " << trace_json;
    EXPECT_LT(at, spans_at) << key << " must precede \"spans\"";
  }

  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  auto resp = conn.RoundTrip("GET", "/metrics", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string& text = resp.value().body;
  const std::string prefix =
      "vchain_service_query_stage_seconds_count{stage=\"";
  std::set<std::string> labels;
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const size_t begin = at + prefix.size();
    labels.insert(text.substr(begin, text.find('"', begin) - begin));
  }
  EXPECT_EQ(labels, (std::set<std::string>{"setup", "window_lookup",
                                           "match_walk", "aggregate", "prove",
                                           "serialize"}));
  server->Stop();
}

// ServiceOptions::tracing = false holds on the wire: a plain POST /query
// builds no span tree (nothing reaches the trace ring), while a request
// that asks for X-Vchain-Trace still gets every stage key.
TEST(NetE2eRawTest, TracingOffServiceBuildsNoTreeForPlainQueries) {
  auto svc = MakeServedService(EngineKind::kMockAcc2, /*tracing=*/false);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  auto client = ConnectMockAcc2(*server);
  ASSERT_TRUE(client->Query(MatchyQuery()).ok());
  EXPECT_EQ(svc->Stats().trace_ring_occupancy, 0u);

  std::string trace_json;
  ASSERT_TRUE(client->Query(MatchyQuery(), &trace_json).ok());
  for (const char* key : {"total_ns", "setup_ns", "window_lookup_ns",
                          "match_walk_ns", "aggregate_ns", "prove_ns",
                          "serialize_ns", "msm_ns"}) {
    EXPECT_NE(trace_json.find("\"" + std::string(key) + "\":"),
              std::string::npos)
        << key << " in " << trace_json;
  }
  server->Stop();
}

// The /query endpoint speaks strict JSON: hostile bodies get a 400, not a
// crash (the full malformed-HTTP sweep lives in http_server_test.cc).
TEST(NetE2eRawTest, MalformedQueryBodyIs400) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  for (const char* bad : {"", "{", "[]", "{\"window\":[0]}",
                          "{\"window\":[0,1],\"ranges\":[],\"cnf\":[[]]}"}) {
    auto resp = conn.RoundTrip("POST", "/query", bad, "application/json");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 400) << bad;
  }
  auto not_found = conn.RoundTrip("GET", "/nope", "", "text/plain");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found.value().status, 404);
  auto wrong_method = conn.RoundTrip("GET", "/query", "", "text/plain");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);
}

// A long-poll /events request with nothing to deliver parks on the event
// hub and completes the moment a block is mined — no polling loop, no
// worker thread held while parked.
TEST(NetE2eRawTest, LongPollParksUntilAppendDeliversEvents) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;  // one worker: a parked request must not hold it
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});

  auto sub_resp = conn.RoundTrip("POST", "/subscribe",
                                 SubscribeRequestToJson(MatchyQuery()),
                                 "application/json");
  ASSERT_TRUE(sub_resp.ok()) << sub_resp.status().ToString();
  ASSERT_EQ(sub_resp.value().status, 200);
  auto sub = SubscribeResponseFromJson(sub_resp.value().body);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub.value().cursor, 8u);

  std::thread miner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::vector<Object> objs(1);
    objs[0].id = 7777;
    objs[0].timestamp = kBaseTime + 8 * kTimeStep;
    objs[0].numeric = {50, 60};
    objs[0].keywords = {"Van", "BMW"};
    ASSERT_TRUE(svc->Append(std::move(objs), kBaseTime + 8 * kTimeStep).ok());
  });
  auto t0 = std::chrono::steady_clock::now();
  auto poll = conn.RoundTrip(
      "GET",
      "/events?id=" + std::to_string(sub.value().id) + "&cursor=8&wait_ms=5000",
      "", "text/plain");
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  miner.join();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  ASSERT_EQ(poll.value().status, 200);
  EXPECT_GE(waited.count(), 50) << "request did not park";
  EXPECT_LT(waited.count(), 5000) << "append did not wake the parked request";

  auto frame = DecodeEventFrame(
      ByteSpan(reinterpret_cast<const uint8_t*>(poll.value().body.data()),
               poll.value().body.size()));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().events.size(), 1u);
  EXPECT_EQ(frame.value().next_cursor, 9u);
  auto local = svc->EventsSince(sub.value().id, 8, 64);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(frame.value().events[0].notification_bytes,
            local.value().events[0].notification_bytes);
}

// The SSE flavor of /events: records arrive as blocks are mined, with the
// block height as the record id and the canonical notification bytes
// base64'd in `data:` — decoded, they are the service's bytes verbatim.
TEST(NetE2eRawTest, SseStreamDeliversMinedBlocks) {
  auto svc = MakeServedService(EngineKind::kMockAcc2);
  SpServer::Options sopts;
  sopts.http.num_threads = 1;
  auto server = SpServer::Start(svc.get(), sopts).TakeValue();
  HttpConnection conn({.host = "127.0.0.1", .port = server->port()});
  auto sub_resp = conn.RoundTrip("POST", "/subscribe",
                                 SubscribeRequestToJson(MatchyQuery()),
                                 "application/json");
  ASSERT_TRUE(sub_resp.ok()) << sub_resp.status().ToString();
  auto sub = SubscribeResponseFromJson(sub_resp.value().body);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  // SSE is close-delimited, so it needs a raw socket (HttpConnection
  // requires Content-Length).
  RawSseSocket sock(server->port());
  ASSERT_TRUE(sock.connected());
  sock.Send("GET /events?id=" + std::to_string(sub.value().id) +
            "&cursor=8 HTTP/1.1\r\nAccept: text/event-stream\r\n\r\n");
  std::string head = sock.ReadUntil("retry: 1000\n\n", 5000);
  ASSERT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos) << head;
  ASSERT_NE(head.find("text/event-stream"), std::string::npos) << head;

  std::vector<Object> objs(1);
  objs[0].id = 8888;
  objs[0].timestamp = kBaseTime + 8 * kTimeStep;
  objs[0].numeric = {50, 60};
  objs[0].keywords = {"Sedan", "Audi"};
  ASSERT_TRUE(svc->Append(std::move(objs), kBaseTime + 8 * kTimeStep).ok());

  std::string record = sock.ReadUntil("\n\n", 5000);
  size_t id_pos = record.find("id: 8");
  ASSERT_NE(id_pos, std::string::npos) << record;
  size_t data_pos = record.find("data: ", id_pos);
  ASSERT_NE(data_pos, std::string::npos) << record;
  size_t data_end = record.find('\n', data_pos);
  std::string b64 = record.substr(data_pos + 6, data_end - data_pos - 6);
  auto bytes = Base64Decode(b64);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto local = svc->EventsSince(sub.value().id, 8, 64);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local.value().events.size(), 1u);
  EXPECT_EQ(bytes.value(), local.value().events[0].notification_bytes);
}

}  // namespace
}  // namespace vchain::net
