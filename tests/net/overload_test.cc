// Availability under abuse and partial failure:
//
//   * overload: connections past the cap are shed with an immediate 503 +
//     Retry-After — bounded memory, never a queue that grows with the flood;
//   * per-IP rate limiting: a chatty client gets 429 + Retry-After without
//     the handler running, and is served again once its bucket refills;
//   * graceful drain: in-flight requests finish, the listener closes, and
//     idle keep-alive peers are shut;
//   * degraded mode end-to-end: a storage write fault flips the Service to
//     read-only — queries keep serving bit-identical answers, appends come
//     back Unavailable, /healthz answers 503 and /metrics reports it;
//   * client resilience: SpClient retries 429/503 and transport failures
//     with jittered exponential backoff, and surfaces errno text when the
//     SP is unreachable.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "core/vchain.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "net/wire.h"
#include "store/env.h"

namespace vchain::net {
namespace {

using api::EngineKind;
using api::Service;
using api::ServiceOptions;
using chain::Object;
using core::Query;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// A server counter read back from the registry it was given — the one
/// place a server's numbers live.
uint64_t CounterValue(metrics::Registry& registry, const char* name) {
  return registry.GetCounter(name, "")->Value();
}

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_overload_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(got);
}

class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

ServiceOptions MakeOptions() {
  ServiceOptions opts;
  opts.engine = EngineKind::kMockAcc2;
  opts.config.mode = core::IndexMode::kBoth;
  opts.config.schema = chain::NumericSchema{/*dims=*/2, /*bits=*/8};
  opts.config.skiplist_size = 2;
  opts.oracle_seed = 2026;
  opts.acc_params.universe_bits = 16;
  return opts;
}

std::vector<Object> MakeBlock(uint64_t height) {
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  Rng rng(height + 7);
  std::vector<Object> objs;
  for (size_t i = 0; i < 3; ++i) {
    Object o;
    o.id = height * 100 + i;
    o.timestamp = kBaseTime + height * kTimeStep;
    o.numeric = {rng.Below(256), rng.Below(256)};
    o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
    objs.push_back(std::move(o));
  }
  return objs;
}

// --- transport-level availability (plain HttpServer) -------------------------

TEST(OverloadTest, FloodIsShedWith503AndBoundedState) {
  metrics::Registry registry;  // exact counts: no other server shares it
  HttpServer::Options opts;
  opts.registry = &registry;
  opts.num_threads = 1;
  opts.max_connections = 2;
  opts.recv_timeout_seconds = 1;  // close served keep-alive conns quickly
  auto server = HttpServer::Start(opts, [](const HttpRequest&, Responder r) {
    SleepMs(400);
    r.Send(HttpResponse{.content_type = "text/plain", .body = "slow\n"});
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = server.value()->port();

  // Occupy the single worker...
  RawSocket busy(port);
  ASSERT_TRUE(busy.connected());
  busy.Send("GET /slow HTTP/1.1\r\n\r\n");
  SleepMs(100);  // worker picks up `busy` (frees the queue slot)
  // ... then the one queue slot ...
  RawSocket queued(port);
  ASSERT_TRUE(queued.connected());
  queued.Send("GET /slow HTTP/1.1\r\n\r\n");
  SleepMs(50);

  // ... so the third connection is shed at accept time, before any bytes.
  RawSocket shed(port);
  ASSERT_TRUE(shed.connected());
  std::string reply = shed.ReadAll();
  ASSERT_EQ(reply.substr(0, 12), "HTTP/1.1 503") << reply;
  EXPECT_NE(reply.find("Retry-After:"), std::string::npos);

  // The occupied connections are served to completion regardless.
  EXPECT_NE(busy.ReadAll().find("slow"), std::string::npos);
  EXPECT_NE(queued.ReadAll().find("slow"), std::string::npos);
  EXPECT_GE(CounterValue(registry, "vchain_http_shed_total"), 1u);
  EXPECT_EQ(CounterValue(registry, "vchain_http_requests_total"), 2u);
}

TEST(OverloadTest, PerIpRateLimitAnswers429ThenRecovers) {
  metrics::Registry registry;
  HttpServer::Options opts;
  opts.registry = &registry;
  opts.num_threads = 2;
  opts.rate_limit_rps = 2;
  opts.rate_limit_burst = 2;
  auto server = HttpServer::Start(opts, [](const HttpRequest&, Responder r) {
    r.Send(HttpResponse{.content_type = "text/plain", .body = "ok\n"});
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  HttpConnection conn({.host = "127.0.0.1", .port = server.value()->port()});
  int limited = 0, served = 0;
  std::string retry_after;
  for (int i = 0; i < 6; ++i) {
    auto resp = conn.RoundTrip("GET", "/", "", "text/plain");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.value().status == 429) {
      ++limited;
      for (const auto& [k, v] : resp.value().headers) {
        if (k == "retry-after") retry_after = v;
      }
    } else {
      ASSERT_EQ(resp.value().status, 200);
      ++served;
    }
  }
  EXPECT_GE(limited, 3);  // burst of 2, then the hammering gets 429
  EXPECT_GE(served, 2);
  EXPECT_EQ(retry_after, "1");  // 429 keeps the connection + tells when

  SleepMs(1100);  // bucket refills ~2 tokens
  auto resp = conn.RoundTrip("GET", "/", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_GE(CounterValue(registry, "vchain_http_rate_limited_total"), 3u);
}

TEST(OverloadTest, DrainFinishesInFlightThenStopsAccepting) {
  HttpServer::Options opts;
  opts.num_threads = 1;
  auto server = HttpServer::Start(opts, [](const HttpRequest&, Responder r) {
    SleepMs(200);
    r.Send(HttpResponse{.content_type = "text/plain", .body = "done\n"});
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = server.value()->port();

  std::atomic<bool> got_response{false};
  std::thread in_flight([&] {
    HttpConnection conn({.host = "127.0.0.1", .port = port});
    auto resp = conn.RoundTrip("GET", "/", "", "text/plain");
    got_response = resp.ok() && resp.value().status == 200 &&
                   resp.value().body == "done\n";
  });
  SleepMs(80);  // let the request reach the worker
  server.value()->Drain(/*timeout_seconds=*/5);
  in_flight.join();
  EXPECT_TRUE(got_response);  // the in-flight request completed through drain

  RawSocket after(port);  // the listener is gone
  EXPECT_TRUE(!after.connected() || after.ReadAll().empty());
}

// --- degraded mode end-to-end ------------------------------------------------

TEST(OverloadTest, StorageFaultDegradesToReadOnlyServiceAndHealthz503) {
  std::string dir = UniqueDir();
  store::FaultInjectionEnv fenv;
  ServiceOptions sopts = MakeOptions();
  sopts.store_dir = dir;
  sopts.store_options.env = &fenv;
  auto svc = Service::Open(sopts);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (uint64_t h = 0; h < 4; ++h) {
    ASSERT_TRUE(
        svc.value()->Append(MakeBlock(h), kBaseTime + h * kTimeStep).ok());
  }
  ASSERT_TRUE(svc.value()->Sync().ok());
  ASSERT_TRUE(svc.value()->Health().ok());

  Query q = api::QueryBuilder()
                .Window(kBaseTime, kBaseTime + 3 * kTimeStep)
                .AnyOf({"Sedan", "Van", "SUV"})
                .Build();
  auto before = svc.value()->Query(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // The disk starts refusing writes: the next append fails and the service
  // flips to read-only instead of dying.
  store::FaultInjectionEnv::Fault fault;
  fault.op = store::FaultInjectionEnv::Fault::Op::kWrite;
  fault.err = 28;  // ENOSPC
  fault.at = 1;
  fenv.ScheduleFault(fault);
  Status failed = svc.value()->Append(MakeBlock(4), kBaseTime + 4 * kTimeStep);
  ASSERT_FALSE(failed.ok());
  fenv.ClearFault();

  // Writes shed as Unavailable; reads still serve bit-identical answers.
  Status refused = svc.value()->Append(MakeBlock(4), kBaseTime + 4 * kTimeStep);
  ASSERT_TRUE(refused.IsUnavailable()) << refused.ToString();
  EXPECT_NE(refused.ToString().find("read-only"), std::string::npos);
  EXPECT_TRUE(svc.value()->Health().IsUnavailable());
  EXPECT_TRUE(svc.value()->Stats().degraded);
  auto after = svc.value()->Query(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().response_bytes, before.value().response_bytes);

  // Over the wire: /healthz answers 503 "degraded", /metrics carries the
  // flag, and queries keep working.
  metrics::Registry registry;
  SpServer::Options server_opts;
  server_opts.http.num_threads = 2;
  server_opts.http.registry = &registry;
  auto server = SpServer::Start(svc.value().get(), server_opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpConnection conn({.host = "127.0.0.1", .port = server.value()->port()});
  auto health = conn.RoundTrip("GET", "/healthz", "", "text/plain");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 503);
  EXPECT_NE(health.value().body.find("degraded"), std::string::npos);
  auto scrape = conn.RoundTrip("GET", "/metrics", "", "text/plain");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_EQ(scrape.value().status, 200);
  EXPECT_NE(scrape.value().body.find("\nvchain_service_degraded 1\n"),
            std::string::npos);
  EXPECT_NE(scrape.value().body.find("\nvchain_service_durable 1\n"),
            std::string::npos);
  // The server's scrape-time collector is the gauge's only writer: the
  // degraded flip itself leaves the process-wide registry untouched.
  EXPECT_EQ(metrics::Registry::Default().WriteText().find(
                "\nvchain_service_degraded 1\n"),
            std::string::npos);

  SpClient::Options copts;
  copts.port = server.value()->port();
  copts.verify = MakeOptions();
  copts.retry.max_attempts = 1;
  auto client = SpClient::Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value()->Healthz().IsUnavailable());
  auto wire = client.value()->Query(q);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire.value().response_bytes, before.value().response_bytes);
}

// --- client retry ------------------------------------------------------------

TEST(OverloadTest, BackoffIsJitteredExponentialAndCapped) {
  SpClient::RetryPolicy p;  // 100ms base, x2, cap 2000ms
  EXPECT_EQ(SpClient::ComputeBackoffMs(p, 1, 0), 50);    // low end of [50,100]
  EXPECT_EQ(SpClient::ComputeBackoffMs(p, 1, 50), 100);  // high end
  EXPECT_EQ(SpClient::ComputeBackoffMs(p, 3, 0), 200);   // 400ms base
  for (int attempt = 1; attempt < 20; ++attempt) {
    int64_t ms = SpClient::ComputeBackoffMs(p, attempt, 0xABCDEF1234567890ull);
    EXPECT_GE(ms, 50);
    EXPECT_LE(ms, 2000);  // capped however deep the retry goes
  }
}

TEST(OverloadTest, ClientRetriesThrough429AndSucceeds) {
  std::string dir = UniqueDir();
  ServiceOptions sopts = MakeOptions();
  auto svc = Service::Open(sopts);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (uint64_t h = 0; h < 2; ++h) {
    ASSERT_TRUE(
        svc.value()->Append(MakeBlock(h), kBaseTime + h * kTimeStep).ok());
  }
  metrics::Registry registry;
  SpServer::Options server_opts;
  server_opts.http.num_threads = 2;
  server_opts.http.registry = &registry;
  server_opts.http.rate_limit_rps = 1;
  server_opts.http.rate_limit_burst = 1;
  auto server = SpServer::Start(svc.value().get(), server_opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  SpClient::Options copts;
  copts.port = server.value()->port();
  copts.verify = MakeOptions();
  copts.retry.max_attempts = 4;
  copts.retry.initial_backoff_ms = 200;
  auto client = SpClient::Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Burst of 1: the back-to-back second header sync (one idempotent GET
  // /headers each) gets 429 and must retry its way (Retry-After: 1) to a 200.
  chain::LightClient first = client.value()->NewLightClient();
  Status st = client.value()->SyncHeaders(&first);
  ASSERT_TRUE(st.ok()) << st.ToString();
  chain::LightClient second = client.value()->NewLightClient();
  st = client.value()->SyncHeaders(&second);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(second.Height(), 2u);
  EXPECT_GE(CounterValue(registry, "vchain_http_rate_limited_total"), 1u);
}

TEST(OverloadTest, UnreachableSpExhaustsRetriesWithErrnoText) {
  // Grab a port that is free and keep it closed.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  SpClient::Options copts;
  copts.port = dead_port;
  copts.verify = MakeOptions();
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff_ms = 10;
  auto client = SpClient::Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto t0 = std::chrono::steady_clock::now();
  Status st = client.value()->Healthz();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(st.ok());
  // The transport error carries where and why, errno text included.
  EXPECT_NE(st.ToString().find("connect to 127.0.0.1:"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("refused"), std::string::npos) << st.ToString();
  // Both attempts ran (one backoff sleep), then it gave up promptly.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

}  // namespace
}  // namespace vchain::net
