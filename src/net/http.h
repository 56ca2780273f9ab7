// Dependency-free HTTP/1.1 transport for the SP wire protocol.
//
// Deliberately a *subset* of HTTP/1.1 — exactly what an SP deployment
// behind a loopback, LAN, or reverse proxy needs, with every limit
// explicit so a hostile peer can neither exhaust memory nor wedge a
// worker:
//
//   * GET/POST, request head capped (kMaxHeadBytes), header count capped,
//     target length capped, bare-LF and obs-fold rejected;
//   * bodies require Content-Length (Transfer-Encoding is answered 501 —
//     chunked parsing is attack surface the protocol doesn't need);
//   * slow-loris protection: separate progress deadlines for the request
//     head and body (a peer that trickles one byte per poll interval gets
//     408 and dropped), plus the keep-alive idle timeout;
//   * overload protection: a global connection cap — excess connections
//     are shed with an immediate 503 + Retry-After and never buffered, so
//     a flood cannot grow server memory — and an optional per-IP
//     token-bucket rate limiter that answers 429 + Retry-After without
//     running the handler;
//   * a malformed request gets a 400 and the connection is closed — the
//     server never crashes on hostile bytes (tests/net/http_server_test.cc
//     and tests/net/event_loop_test.cc throw garbage at a live socket).
//
// Server shape: a single readiness-driven epoll event loop owns every
// socket (non-blocking accept, per-connection read-head → read-body →
// handle → write → keep-alive/close state machines, deadline sweeps), and
// a small worker pool runs only the CPU-bound handler work. Workers hand
// results back to the loop through an eventfd-signalled completion queue
// — the loop thread is the only thread that ever touches a connection's
// socket, so ten thousand idle keep-alive connections cost one epoll set,
// not ten thousand blocked threads.
//
// Handlers complete through a `Responder`: either one buffered
// `Send(response)`, or `BeginStream()`/`Write()`/`End()` for long-lived
// streaming responses (SSE). A Responder may be copied out of the handler
// and completed later from any thread — that is how long-poll endpoints
// park a request until an event arrives. Streamed bytes are buffered per
// connection up to `max_stream_buffer_bytes`; a consumer slower than its
// producer overflows the buffer and is disconnected (it re-attaches and
// resumes from its cursor — bounded memory, at-least-once delivery).
//
// Stop() aborts in-flight connections; Drain() is the graceful variant:
// stop accepting, let in-flight requests finish (their response carries
// Connection: close), shut idle keep-alive connections and live streams,
// and only hard-stop when the drain deadline expires.
//
// The client (`HttpConnection`) keeps one connection alive across
// round-trips and transparently reconnects once when a kept-alive socket
// turns out to be stale (the server or a proxy closed it between requests).
// Every transport failure carries the errno text and the phase it happened
// in, and `sent_on_wire` tells retrying callers whether the request may
// have reached the peer.

#ifndef VCHAIN_NET_HTTP_H_
#define VCHAIN_NET_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace vchain::net {

struct HttpRequest {
  std::string method;  ///< "GET" / "POST" (upper-case)
  std::string path;    ///< target before '?', e.g. "/query"
  std::map<std::string, std::string> query;    ///< decoded ?key=value params
  std::map<std::string, std::string> headers;  ///< lower-cased field names
  std::string body;
  /// The request's correlation id: the client's X-Request-Id when it sent
  /// one, else generated at dispatch. Echoed on the response, stamped (via
  /// logging::ScopedRequestId) on every log line the handler emits.
  std::string request_id;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/octet-stream";
  std::vector<std::pair<std::string, std::string>> headers;  ///< extras
  std::string body;
};

const char* HttpReasonPhrase(int status);

/// Strict decimal u64: digits only, max 20 chars, overflow-checked. Shared
/// by the request parser, the /headers query params, and the client's
/// response-header parsing so the accepted grammar cannot drift.
bool ParseDecimalU64(std::string_view s, uint64_t* out);

class IpRateLimiter;
struct ResponderCore;

/// Completion handle for one request. Exactly one of Send() or
/// BeginStream() wins (later calls are ignored); a Responder dropped
/// without completing answers 500 so a buggy route can never leak a
/// connection. Copyable and thread-safe: any copy may complete the
/// request from any thread, which is how long-poll routes park a request
/// past handler return. All operations are no-ops after the peer
/// disconnects or the server stops — poll alive() to stop producing.
class Responder {
 public:
  Responder() = default;  ///< inert; Send/Write are no-ops

  /// Complete with one buffered response. First completion wins.
  void Send(HttpResponse resp) const;

  /// Switch the connection to streaming: writes the response head
  /// (Connection: close, no Content-Length — the stream is close-
  /// delimited) and leaves the connection open for Write(). Returns false
  /// when another completion already won or the connection is gone.
  bool BeginStream(
      int status, const std::string& content_type,
      std::vector<std::pair<std::string, std::string>> headers = {}) const;

  /// Queue stream bytes. False when the connection is gone or the
  /// per-connection stream buffer is full (slow consumer) — stop writing.
  bool Write(std::string_view chunk) const;

  /// Finish the stream; the connection closes once buffered bytes flush.
  void End() const;

  /// True while the connection is open and the server is running.
  bool alive() const;

  /// The request's correlation id (also in HttpRequest::request_id).
  const std::string& request_id() const;

 private:
  friend class HttpServer;
  explicit Responder(std::shared_ptr<ResponderCore> core)
      : core_(std::move(core)) {}
  std::shared_ptr<ResponderCore> core_;
};

class HttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read the chosen one from port()
    /// Handler worker pool size. Only `Service::Query`-style CPU work runs
    /// here; all socket I/O stays on the event loop.
    size_t num_threads = 4;
    size_t max_body_bytes = 8u << 20;
    /// Inactivity timeout: a connection idle this long between requests
    /// (or stalled mid-write) is dropped. <= 0 disables.
    int recv_timeout_seconds = 10;

    // --- overload protection -------------------------------------------------
    /// Hard cap on connections the event loop holds at once. Connections
    /// beyond it are shed with 503 + Retry-After at accept time, so a
    /// flood can never grow server memory.
    size_t max_connections = 64;
    /// Per-IP sustained requests/second; 0 disables rate limiting.
    double rate_limit_rps = 0;
    /// Token-bucket burst per IP; 0 -> max(rate_limit_rps, 1).
    double rate_limit_burst = 0;

    // --- slow-loris protection -----------------------------------------------
    /// Once the first head byte arrives, the full request head must arrive
    /// within this budget (408 otherwise). 0 disables.
    int header_timeout_seconds = 5;
    /// Budget for the request body after the head (408 otherwise). 0
    /// disables.
    int body_timeout_seconds = 10;

    // --- streaming -----------------------------------------------------------
    /// Per-connection cap on stream bytes buffered ahead of a slow
    /// consumer; overflow disconnects the stream (the subscriber resumes
    /// from its cursor — backpressure by redelivery, never by memory).
    size_t max_stream_buffer_bytes = 256u << 10;

    /// Registry the server's counters/histograms live in; null = the
    /// process-wide metrics::Registry::Default(). It is the only place the
    /// server's numbers are read back from (vchain_http_*_total, the
    /// vchain_http_active_connections gauge); tests and benches inject
    /// their own for isolated assertions. Servers sharing one registry
    /// share counters.
    metrics::Registry* registry = nullptr;
  };

  /// Synchronous route: return one buffered response.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Asynchronous route: complete (now or later, from any thread) through
  /// the Responder.
  using AsyncHandler = std::function<void(const HttpRequest&, Responder)>;

  /// Bind, listen, and spin up the event loop + worker pool. InvalidArgument
  /// for a bad bind address, Internal for socket errors (port in use, ...).
  static Result<std::unique_ptr<HttpServer>> Start(Options options,
                                                   AsyncHandler handler);
  /// Sync adapter: wraps `handler` so existing buffered routes run
  /// unchanged on the event loop.
  static Result<std::unique_ptr<HttpServer>> Start(Options options,
                                                   Handler handler);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Hard stop: abort in-flight connections and join all threads.
  void Stop();

  /// Graceful stop: close the listener, finish in-flight requests (their
  /// responses carry Connection: close), shut idle keep-alive connections
  /// and live streams, and join. Falls back to Stop() when work is still
  /// in flight after `timeout_seconds`. Idempotent with Stop(); safe to
  /// call once from any thread.
  void Drain(int timeout_seconds = 10);

  uint16_t port() const { return port_; }

  static constexpr size_t kMaxHeadBytes = 16u << 10;
  static constexpr size_t kMaxHeaderCount = 64;
  static constexpr size_t kMaxTargetBytes = 2048;

 private:
  friend struct ResponderCore;
  struct Loop;    ///< event-loop state: epoll set, connection table
  struct Shared;  ///< completion + job queues shared with workers/Responders

  HttpServer(Options options, AsyncHandler handler);
  void LoopMain();
  void WorkerMain();
  void CountResponseClass(int status);

  Options options_;
  AsyncHandler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<IpRateLimiter> limiter_;
  std::unique_ptr<Loop> loop_;
  std::shared_ptr<Shared> shared_;

  std::atomic<size_t> held_connections_{0};  ///< open connections
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  // Availability counters live in the metrics registry, the server's one
  // stats source; held_connections_ above stays the admission-control
  // variable and is mirrored into active_connections_.
  metrics::Counter* n_accepted_ = nullptr;
  metrics::Counter* n_requests_ = nullptr;
  metrics::Counter* n_shed_ = nullptr;
  metrics::Counter* n_rate_limited_ = nullptr;
  metrics::Counter* n_timed_out_ = nullptr;
  metrics::Counter* n_status_2xx_ = nullptr;
  metrics::Counter* n_status_3xx_ = nullptr;
  metrics::Counter* n_status_4xx_ = nullptr;
  metrics::Counter* n_status_5xx_ = nullptr;
  metrics::Gauge* active_connections_ = nullptr;
  metrics::Histogram* request_seconds_ = nullptr;
};

/// Client side: one persistent connection, lazily (re)established.
class HttpConnection {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    size_t max_response_bytes = 256u << 20;
    int recv_timeout_seconds = 60;
    /// Budget for establishing the TCP connection (nonblocking connect +
    /// poll). 0 = the OS default.
    int connect_timeout_seconds = 10;
  };

  explicit HttpConnection(Options options) : options_(std::move(options)) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// One request/response exchange. Internal on connect/transport failure
  /// (message carries the errno text and phase), Corruption when the
  /// peer's response violates the protocol subset.
  ///
  /// `sent_on_wire` (optional): set true once any request byte may have
  /// reached the peer on a *fresh* connection — the signal a retrying
  /// caller uses to gate non-idempotent requests. (A send on a reused
  /// keep-alive connection that the server already closed is retried
  /// internally; that cannot double-deliver, since the peer never read it.)
  /// `extra_headers` (optional) are appended verbatim to the request head
  /// — how callers propagate X-Request-Id and opt into X-Vchain-Trace.
  /// Field names must be token-safe; values must be CR/LF-free.
  Result<HttpResponse> RoundTrip(
      const std::string& method, const std::string& target,
      std::string_view body, const std::string& content_type,
      bool* sent_on_wire = nullptr,
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

 private:
  Status Connect();
  Status SendAll(std::string_view data);

  Options options_;
  int fd_ = -1;
};

}  // namespace vchain::net

#endif  // VCHAIN_NET_HTTP_H_
