// Transport hardening: a live HttpServer fed hostile bytes over raw
// sockets. Every malformed request must come back 4xx/5xx — never a crash,
// never a hang — and the server must keep serving well-formed requests on
// fresh connections afterwards.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "net/http.h"

namespace vchain::net {
namespace {

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

  /// Read until the peer closes (our server closes after any 4xx/5xx).
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

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServer::Options opts;
    opts.num_threads = 2;
    opts.max_body_bytes = 1024;
    opts.recv_timeout_seconds = 2;  // hostile half-requests time out fast
    auto server =
        HttpServer::Start(opts, [](const HttpRequest& req, Responder r) {
          HttpResponse resp;
          resp.content_type = "text/plain";
          resp.body = req.method + " " + req.path + " ok\n";
          r.Send(std::move(resp));
        });
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.TakeValue();
  }

  std::string StatusOf(const std::string& raw_request) {
    RawSocket sock(server_->port());
    EXPECT_TRUE(sock.connected());
    sock.Send(raw_request);
    std::string reply = sock.ReadAll();
    size_t eol = reply.find("\r\n");
    return eol == std::string::npos ? reply : reply.substr(0, eol);
  }

  void ExpectStillServing() {
    HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
    auto resp = conn.RoundTrip("GET", "/ping", "", "text/plain");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 200);
    EXPECT_EQ(resp.value().body, "GET /ping ok\n");
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, WellFormedRequestRoundTrips) {
  ExpectStillServing();
}

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
  for (int i = 0; i < 16; ++i) {
    auto resp = conn.RoundTrip("POST", "/n", std::to_string(i), "text/plain");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 200);
  }
}

TEST_F(HttpServerTest, MalformedRequestsGet400) {
  for (const char* bad : {
           "GARBAGE\r\n\r\n",                       // no method/target/version
           "GET /\r\n\r\n",                          // missing version
           "GET / HTTP/2.0\r\n\r\n",                 // unsupported version
           "GET relative HTTP/1.1\r\n\r\n",          // target not absolute
           "GET /%zz HTTP/1.1\r\n\r\n",              // bad percent escape
           "GET / HTTP/1.1\r\nno-colon\r\n\r\n",     // malformed header
           "GET / HTTP/1.1\r\n : empty-name\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
           "GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",  // obs-fold
       }) {
    EXPECT_EQ(StatusOf(bad), "HTTP/1.1 400 Bad Request") << bad;
  }
  ExpectStillServing();
}

TEST_F(HttpServerTest, TransferEncodingIsNotImplemented) {
  EXPECT_EQ(StatusOf("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            "HTTP/1.1 501 Not Implemented");
  ExpectStillServing();
}

TEST_F(HttpServerTest, OversizedBodyIs413) {
  EXPECT_EQ(StatusOf("POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"),
            "HTTP/1.1 413 Payload Too Large");
  ExpectStillServing();
}

TEST_F(HttpServerTest, OversizedHeadIs400) {
  std::string huge = "GET / HTTP/1.1\r\nX-Filler: ";
  huge += std::string(HttpServer::kMaxHeadBytes + 10, 'a');
  EXPECT_EQ(StatusOf(huge), "HTTP/1.1 400 Bad Request");
  ExpectStillServing();
}

TEST_F(HttpServerTest, TooManyHeadersIs400) {
  std::string req = "GET / HTTP/1.1\r\n";
  for (size_t i = 0; i <= HttpServer::kMaxHeaderCount; ++i) {
    req += "X-H" + std::to_string(i) + ": v\r\n";
  }
  req += "\r\n";
  EXPECT_EQ(StatusOf(req), "HTTP/1.1 400 Bad Request");
  ExpectStillServing();
}

TEST_F(HttpServerTest, SlowPeerTimesOutWithoutWedgingWorkers) {
  RawSocket slow(server_->port());
  ASSERT_TRUE(slow.connected());
  slow.Send("GET / HTT");  // half a request, then silence
  // The worker must reclaim itself via the progress deadline; meanwhile
  // (and afterwards) other connections keep being served.
  ExpectStillServing();
  // Slow-loris answer: 408 + close (the peer started a head and stalled).
  EXPECT_EQ(slow.ReadAll().substr(0, 12), "HTTP/1.1 408");
  ExpectStillServing();
}

TEST_F(HttpServerTest, StopUnblocksEverything) {
  RawSocket idle(server_->port());
  ASSERT_TRUE(idle.connected());
  server_->Stop();  // must not hang on the idle connection
  SUCCEED();
}

const std::string* FindHeader(const HttpResponse& resp,
                              const std::string& key) {
  for (const auto& [k, v] : resp.headers) {
    if (k == key) return &v;  // client lower-cases field names
  }
  return nullptr;
}

TEST_F(HttpServerTest, RequestIdIsGeneratedWhenAbsent) {
  HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
  auto resp = conn.RoundTrip("GET", "/ping", "", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string* id = FindHeader(resp.value(), "x-request-id");
  ASSERT_NE(id, nullptr) << "every response must carry X-Request-Id";
  EXPECT_FALSE(id->empty());
  // A second request gets a different id.
  auto resp2 = conn.RoundTrip("GET", "/ping", "", "text/plain");
  ASSERT_TRUE(resp2.ok());
  const std::string* id2 = FindHeader(resp2.value(), "x-request-id");
  ASSERT_NE(id2, nullptr);
  EXPECT_NE(*id, *id2);
}

TEST_F(HttpServerTest, ClientRequestIdIsEchoedBack) {
  HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
  auto resp = conn.RoundTrip("GET", "/ping", "", "text/plain", nullptr,
                             {{"X-Request-Id", "abc-123.DEF"}});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string* id = FindHeader(resp.value(), "x-request-id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(*id, "abc-123.DEF");
}

TEST_F(HttpServerTest, HostileRequestIdIsReplacedNotEchoed) {
  HttpConnection conn({.host = "127.0.0.1", .port = server_->port()});
  // Characters outside [0-9a-zA-Z-_.] (here: quotes, spaces, braces) must
  // never be reflected into a response header or a log line.
  auto resp = conn.RoundTrip("GET", "/ping", "", "text/plain", nullptr,
                             {{"X-Request-Id", "evil\"id {inject}"}});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string* id = FindHeader(resp.value(), "x-request-id");
  ASSERT_NE(id, nullptr);
  EXPECT_FALSE(id->empty());
  EXPECT_EQ(id->find_first_of("\" {}"), std::string::npos);
  EXPECT_NE(*id, "evil\"id {inject}");
}

TEST(HttpServerMetricsTest, InjectedRegistryIsTheOneSourceOfTruth) {
  metrics::Registry registry;
  HttpServer::Options opts;
  opts.num_threads = 2;
  opts.registry = &registry;
  auto server = HttpServer::Start(opts, [](const HttpRequest&, Responder r) {
    r.Send(HttpResponse{.content_type = "text/plain", .body = "ok\n"});
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpConnection conn({.host = "127.0.0.1", .port = server.value()->port()});
  for (int i = 0; i < 3; ++i) {
    auto resp = conn.RoundTrip("GET", "/x", "", "text/plain");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  std::string text = registry.WriteText();
  EXPECT_NE(text.find("vchain_http_requests_total 3"), std::string::npos);
  // One keep-alive connection.
  EXPECT_NE(text.find("vchain_http_accepted_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vchain_http_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("vchain_http_responses_total{class=\"2xx\"} 3"),
      std::string::npos);
  server.value()->Stop();
}

}  // namespace
}  // namespace vchain::net
