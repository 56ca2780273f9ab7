// Event-loop torture: the readiness-driven transport under hostile and
// degenerate workloads. The invariants proved here are the ones the
// streaming subscription API leans on:
//
//   * malformed bytes are answered 400 and never wedge the loop;
//   * a thousand idle keep-alive connections cost one epoll set, not a
//     thousand blocked threads — queries keep serving at full speed;
//   * a stream consumer slower than its producer hits the bounded buffer
//     (Write() backpressure or disconnect), never unbounded server memory;
//   * Drain() ends parked streams promptly instead of waiting out their
//     consumers;
//   * a Responder parked past handler return completes from any thread,
//     and one dropped without completing answers 500 (no leaked
//     connections from buggy routes).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/http.h"

namespace vchain::net {
namespace {

using Clock = std::chrono::steady_clock;

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
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  bool connected() const { return connected_; }

  void Send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Read until the peer closes.
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

  /// Read until `token` appears in the accumulated bytes, EOF, or timeout.
  std::string ReadUntil(const std::string& token, int timeout_ms) {
    std::string out;
    char buf[4096];
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (out.find(token) == std::string::npos) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) break;
      struct pollfd pfd = {fd_, POLLIN, 0};
      int p = ::poll(&pfd, 1, static_cast<int>(left));
      if (p <= 0) break;
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

/// Poll `cond` every 2ms until true or `timeout_ms` elapses.
bool WaitFor(const std::function<bool()>& cond, int timeout_ms) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Async-handler server with the route shapes the subscription endpoints
/// use: buffered, parked (long-poll), streaming, and buggy (no completion).
class EventLoopTest : public ::testing::Test {
 protected:
  static constexpr size_t kFloodCap = 64u << 20;  // producer gives up here

  void StartServer(HttpServer::Options opts) {
    opts.registry = &registry_;
    auto server = HttpServer::Start(
        std::move(opts), [this](const HttpRequest& req, Responder responder) {
          HandleRoute(req, std::move(responder));
        });
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.TakeValue();
  }

  /// Open connections, from the gauge the server keeps in its registry.
  size_t ActiveConnections() {
    return static_cast<size_t>(
        registry_.GetGauge("vchain_http_active_connections", "")->Value());
  }

  void HandleRoute(const HttpRequest& req, Responder responder) {
    if (req.path == "/ping") {
      responder.Send(
          {.status = 200, .content_type = "text/plain", .body = "pong\n"});
    } else if (req.path == "/park") {
      std::lock_guard<std::mutex> lock(mu_);
      parked_.push_back(std::move(responder));
      parked_cv_.notify_all();
    } else if (req.path == "/park-stream") {
      responder.BeginStream(200, "text/event-stream");
      responder.Write("hello\n\n");
      std::lock_guard<std::mutex> lock(mu_);
      parked_.push_back(std::move(responder));
      parked_cv_.notify_all();
    } else if (req.path == "/flood") {
      // Producer far faster than any consumer: write until the bounded
      // buffer pushes back (Write false repeatedly, or disconnect).
      const std::string chunk(1024, 'x');
      size_t accepted = 0;
      int consecutive_fail = 0;
      bool backpressured = false;
      if (responder.BeginStream(200, "application/octet-stream")) {
        while (accepted < kFloodCap) {
          if (!responder.alive()) {  // overflow disconnect also counts
            backpressured = true;
            break;
          }
          if (responder.Write(chunk)) {
            accepted += chunk.size();
            consecutive_fail = 0;
          } else if (++consecutive_fail >= 200) {
            backpressured = true;  // 200 rejects over >= 200ms: buffer full
            break;
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        responder.End();
      }
      flood_accepted_.store(accepted);
      flood_backpressured_.store(backpressured);
      flood_done_.store(true);
    } else if (req.path == "/drop") {
      // Return without completing: the transport must answer 500 for us.
    } else {
      responder.Send(
          {.status = 404, .content_type = "text/plain", .body = "nope\n"});
    }
  }

  void ExpectStillServing() {
    HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
    auto resp = conn.RoundTrip("GET", "/ping", "", "text/plain");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 200);
    EXPECT_EQ(resp.value().body, "pong\n");
  }

  Responder TakeParked(int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    parked_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return !parked_.empty(); });
    if (parked_.empty()) return Responder();
    Responder r = std::move(parked_.back());
    parked_.pop_back();
    return r;
  }

  metrics::Registry registry_;
  std::unique_ptr<HttpServer> server_;
  std::mutex mu_;
  std::condition_variable parked_cv_;
  std::vector<Responder> parked_;
  std::atomic<size_t> flood_accepted_{0};
  std::atomic<bool> flood_backpressured_{false};
  std::atomic<bool> flood_done_{false};
};

TEST_F(EventLoopTest, MalformedRequestsNeverWedgeTheLoop) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  opts.recv_timeout_seconds = 2;
  StartServer(std::move(opts));
  for (const char* bad : {
           "GARBAGE\r\n\r\n",
           "GET /\r\n\r\n",
           "GET / HTTP/2.0\r\n\r\n",
           "GET relative HTTP/1.1\r\n\r\n",
           "GET /%zz HTTP/1.1\r\n\r\n",
           "GET / HTTP/1.1\r\nno-colon\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
           "GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
       }) {
    RawSocket sock(server_->port());
    ASSERT_TRUE(sock.connected());
    sock.Send(bad);
    std::string reply = sock.ReadAll();
    EXPECT_EQ(reply.substr(0, reply.find("\r\n")), "HTTP/1.1 400 Bad Request")
        << bad;
    // The loop must be answering well-formed traffic between every blow.
    ExpectStillServing();
  }
}

TEST_F(EventLoopTest, ThousandIdleKeepAliveConnectionsStayCheap) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  opts.max_connections = 1100;
  opts.recv_timeout_seconds = 120;  // idles must survive the test
  StartServer(std::move(opts));

  constexpr size_t kIdle = 1000;
  std::vector<std::unique_ptr<RawSocket>> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<RawSocket>(server_->port()));
    ASSERT_TRUE(idle.back()->connected()) << "connection " << i;
  }
  ASSERT_TRUE(WaitFor(
      [&] { return ActiveConnections() >= kIdle; }, 5000))
      << "loop accepted " << ActiveConnections();

  // Real requests keep round-tripping while the thousand idles are held.
  for (int i = 0; i < 8; ++i) ExpectStillServing();

  // The idles are live connections, not zombies: any of them can speak up.
  idle[0]->Send("GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::string reply = idle[0]->ReadAll();
  EXPECT_EQ(reply.substr(0, reply.find("\r\n")), "HTTP/1.1 200 OK");
  EXPECT_NE(reply.find("pong"), std::string::npos);

  // Hanging up releases their slots (peer EOF wakes the loop).
  idle.clear();
  EXPECT_TRUE(WaitFor(
      [&] { return ActiveConnections() <= 4; }, 5000))
      << "still held: " << ActiveConnections();
  ExpectStillServing();
}

TEST_F(EventLoopTest, SlowStreamConsumerHitsBackpressureNotServerMemory) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  opts.max_stream_buffer_bytes = 4096;  // tiny: overflow fast
  StartServer(std::move(opts));

  RawSocket sock(server_->port());
  ASSERT_TRUE(sock.connected());
  sock.Send("GET /flood HTTP/1.1\r\n\r\n");
  // Do not read: the consumer is infinitely slow. The producer must stop
  // long before its 64 MiB budget — bounded by the stream buffer plus
  // whatever the kernel socket buffers absorb.
  ASSERT_TRUE(WaitFor([&] { return flood_done_.load(); }, 30000));
  EXPECT_TRUE(flood_backpressured_.load());
  EXPECT_LT(flood_accepted_.load(), kFloodCap);

  // Now drain what did get through: a response head plus bounded payload,
  // then EOF — the server never owed us the rest.
  std::string got = sock.ReadAll();
  EXPECT_EQ(got.substr(0, got.find("\r\n")), "HTTP/1.1 200 OK");
  ExpectStillServing();
}

TEST_F(EventLoopTest, DrainEndsParkedStreamsPromptly) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  StartServer(std::move(opts));

  RawSocket sock(server_->port());
  ASSERT_TRUE(sock.connected());
  sock.Send("GET /park-stream HTTP/1.1\r\n\r\n");
  std::string head = sock.ReadUntil("hello", 5000);
  ASSERT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  ASSERT_NE(head.find("hello"), std::string::npos);

  // The stream's Responder is parked in parked_ — nobody will End() it.
  // Drain must not wait out the consumer: it ends the stream itself.
  Clock::time_point t0 = Clock::now();
  server_->Drain(/*timeout_seconds=*/10);
  std::string rest = sock.ReadAll();  // EOF once the stream is shut
  auto elapsed =
      std::chrono::duration_cast<std::chrono::seconds>(Clock::now() - t0);
  EXPECT_LT(elapsed.count(), 8) << "drain waited out a parked stream";

  Responder r = TakeParked(1000);
  EXPECT_FALSE(r.alive());  // the parked producer was told to stop
}

TEST_F(EventLoopTest, ParkedRequestCompletesFromAnotherThread) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  StartServer(std::move(opts));

  Result<HttpResponse> got = Status::Internal("never ran");
  std::thread client_thread([&] {
    HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
    got = conn.RoundTrip("GET", "/park", "", "text/plain");
  });
  Responder r = TakeParked(5000);
  ASSERT_TRUE(r.alive());
  // Complete the long-poll from a foreign thread, well after the handler
  // returned — exactly how the event hub answers /events.
  r.Send({.status = 200, .content_type = "text/plain", .body = "late\n"});
  client_thread.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().status, 200);
  EXPECT_EQ(got.value().body, "late\n");
}

/// Restores the soft RLIMIT_NOFILE even when an ASSERT bails out early.
struct FdLimitGuard {
  struct rlimit saved;
  FdLimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved); }
  ~FdLimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
};

TEST_F(EventLoopTest, FdExhaustionParksListenerAndRecovers) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  StartServer(std::move(opts));
  ExpectStillServing();

  // The client fd must exist before the table fills; connect() after that
  // completes at SYN-ACK from the kernel backlog without the server
  // accepting, which is exactly the EMFILE trap: a level-triggered
  // listener with a backlog it can never drain.
  int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(cfd, 0);

  FdLimitGuard guard;
  struct rlimit tight = guard.saved;
  tight.rlim_cur = std::min<rlim_t>(guard.saved.rlim_cur, 512);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (;;) {
    int p[2];
    if (::pipe(p) != 0) break;
    fillers.push_back(p[0]);
    fillers.push_back(p[1]);
  }
  ASSERT_FALSE(fillers.empty());  // the table really is exhausted now

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(cfd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string req = "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(cfd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));

  // The loop must park the listener, not hot-spin on it: over a half
  // second of EMFILE the process burns almost no CPU. A spinning loop
  // thread would consume the entire window.
  struct rusage ru0, ru1;
  ::getrusage(RUSAGE_SELF, &ru0);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ::getrusage(RUSAGE_SELF, &ru1);
  auto cpu_us = [](const struct rusage& a, const struct rusage& b) {
    auto us = [](const struct timeval& t) {
      return static_cast<int64_t>(t.tv_sec) * 1000000 + t.tv_usec;
    };
    return (us(b.ru_utime) - us(a.ru_utime)) +
           (us(b.ru_stime) - us(a.ru_stime));
  };
  EXPECT_LT(cpu_us(ru0, ru1), 250000)
      << "loop burned CPU while the fd table was exhausted";

  // Slots free up: the parked listener re-arms, drains the backlog, and
  // the connection that waited out the famine gets served.
  for (int fd : fillers) ::close(fd);
  fillers.clear();
  std::string reply;
  char buf[4096];
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    if (left <= 0) break;
    struct pollfd pfd = {cfd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    ssize_t n = ::recv(cfd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(cfd);
  EXPECT_EQ(reply.substr(0, reply.find("\r\n")), "HTTP/1.1 200 OK");
  EXPECT_NE(reply.find("pong"), std::string::npos);
  ExpectStillServing();
}

TEST_F(EventLoopTest, DroppedResponderAnswers500) {
  HttpServer::Options opts;
  opts.num_threads = 2;
  StartServer(std::move(opts));
  HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
  auto resp = conn.RoundTrip("GET", "/drop", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 500);
  ExpectStillServing();
}

}  // namespace
}  // namespace vchain::net
