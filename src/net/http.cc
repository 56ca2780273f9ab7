#include "net/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <unordered_map>

#include "common/flight_recorder.h"
#include "common/log.h"

namespace vchain::net {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// 16 hex chars, unique within the process and unlikely to collide across
/// processes: a random per-process prefix XOR-mixed with a sequence
/// number. Not a secret — just a correlation id.
std::string GenerateRequestId() {
  static const uint64_t prefix = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
           static_cast<uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
  }();
  static std::atomic<uint64_t> seq{0};
  uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
  // splitmix64 finalizer: consecutive ids don't share prefixes.
  uint64_t z = prefix + n * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(z));
  return buf;
}

/// A client-supplied id is echoed into a response header and log records:
/// clamp the length and drop anything that could smuggle CR/LF or break
/// the key=value log grammar.
std::string SanitizeRequestId(std::string_view id) {
  std::string out;
  out.reserve(std::min<size_t>(id.size(), 64));
  for (char c : id) {
    if (out.size() >= 64) break;
    bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
              (c >= 'A' && c <= 'Z') || c == '-' || c == '_' || c == '.';
    if (ok) out += c;
  }
  return out.empty() ? GenerateRequestId() : out;
}

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";

void SetRecvTimeoutMs(int fd, int64_t ms) {
  if (ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

enum class RecvOutcome { kData, kEof, kTimeout, kError };

/// Append more bytes from `fd` into `buf`. On kError, `*err` holds errno.
RecvOutcome RecvMore(int fd, std::string* buf, int* err = nullptr) {
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf->append(chunk, static_cast<size_t>(n));
      return RecvOutcome::kData;
    }
    if (n == 0) return RecvOutcome::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvOutcome::kTimeout;
    if (err != nullptr) *err = errno;
    return RecvOutcome::kError;
  }
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (unsigned char c : s) {
    if (c <= 0x20 || c >= 0x7F || c == ':') return false;
  }
  return true;
}

bool HexNibble(char c, uint8_t* out) {
  if (c >= '0' && c <= '9') {
    *out = static_cast<uint8_t>(c - '0');
  } else if (c >= 'a' && c <= 'f') {
    *out = static_cast<uint8_t>(c - 'a' + 10);
  } else if (c >= 'A' && c <= 'F') {
    *out = static_cast<uint8_t>(c - 'A' + 10);
  } else {
    return false;
  }
  return true;
}

bool PercentDecode(std::string_view in, std::string* out) {
  out->clear();
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c == '%') {
      uint8_t hi, lo;
      if (i + 2 >= in.size() || !HexNibble(in[i + 1], &hi) ||
          !HexNibble(in[i + 2], &lo)) {
        return false;
      }
      out->push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (c == '+') {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  return true;
}

/// Split "path?a=1&b=2" into path + decoded query map; false when malformed.
bool ParseTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* query) {
  if (target.empty() || target[0] != '/' ||
      target.size() > HttpServer::kMaxTargetBytes) {
    return false;
  }
  for (unsigned char c : target) {
    if (c <= 0x20 || c == 0x7F) return false;
  }
  size_t qpos = target.find('?');
  std::string_view raw_path =
      qpos == std::string_view::npos ? target : target.substr(0, qpos);
  if (!PercentDecode(raw_path, path)) return false;
  if (qpos == std::string_view::npos) return true;
  std::string_view qs = target.substr(qpos + 1);
  while (!qs.empty()) {
    size_t amp = qs.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? qs : qs.substr(0, amp);
    qs = amp == std::string_view::npos ? std::string_view{}
                                       : qs.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string key, value;
    if (!PercentDecode(pair.substr(0, eq == std::string_view::npos ? pair.size()
                                                                   : eq),
                       &key)) {
      return false;
    }
    if (eq != std::string_view::npos &&
        !PercentDecode(pair.substr(eq + 1), &value)) {
      return false;
    }
    (*query)[key] = value;
  }
  return true;
}

struct ParsedHead {
  HttpRequest request;
  size_t content_length = 0;
  bool keep_alive = true;
  bool has_transfer_encoding = false;
};

/// Parse one request head (everything before the blank line). nullopt =
/// protocol violation (the caller answers 400 and closes).
std::optional<ParsedHead> ParseRequestHead(std::string_view head) {
  ParsedHead out;
  size_t line_end = head.find(kCrlf);
  if (line_end == std::string_view::npos) return std::nullopt;
  std::string_view request_line = head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return std::nullopt;
  std::string_view method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = request_line.substr(sp2 + 1);
  if (!IsToken(method)) return std::nullopt;
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return std::nullopt;
  out.keep_alive = version == "HTTP/1.1";
  out.request.method = std::string(method);
  if (!ParseTarget(target, &out.request.path, &out.request.query)) {
    return std::nullopt;
  }

  std::string_view rest = head.substr(line_end + 2);
  size_t header_count = 0;
  bool have_content_length = false;
  while (!rest.empty()) {
    size_t eol = rest.find(kCrlf);
    if (eol == std::string_view::npos) return std::nullopt;
    std::string_view line = rest.substr(0, eol);
    rest = rest.substr(eol + 2);
    if (line.empty()) break;
    // obs-fold (leading whitespace continuation) is an RFC 7230 MUST NOT.
    if (line[0] == ' ' || line[0] == '\t') return std::nullopt;
    if (++header_count > HttpServer::kMaxHeaderCount) return std::nullopt;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::string_view name = line.substr(0, colon);
    if (!IsToken(name)) return std::nullopt;
    std::string key = ToLower(name);
    std::string value(Trim(line.substr(colon + 1)));
    if (key == "content-length") {
      uint64_t v = 0;
      // Duplicate or malformed Content-Length is a classic smuggling vector.
      if (have_content_length || !ParseDecimalU64(value, &v)) return std::nullopt;
      have_content_length = true;
      out.content_length = v;
    } else if (key == "transfer-encoding") {
      out.has_transfer_encoding = true;
    } else if (key == "connection") {
      std::string lower = ToLower(value);
      if (lower == "close") out.keep_alive = false;
      if (lower == "keep-alive") out.keep_alive = true;
    }
    out.request.headers[key] = std::move(value);
  }
  return out;
}

std::string SerializeResponse(const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    HttpReasonPhrase(resp.status);
  out += kCrlf;
  out += "Content-Type: " + resp.content_type;
  out += kCrlf;
  out += "Content-Length: " + std::to_string(resp.body.size());
  out += kCrlf;
  out += keep_alive ? "Connection: keep-alive" : "Connection: close";
  out += kCrlf;
  for (const auto& [name, value] : resp.headers) {
    out += name + ": " + value;
    out += kCrlf;
  }
  out += kCrlf;
  out += resp.body;
  return out;
}

/// Response head for a close-delimited stream: no Content-Length — bytes
/// flow until the server ends the stream and closes the connection.
std::string SerializeStreamHead(
    int status, const std::string& content_type,
    const std::vector<std::pair<std::string, std::string>>& extra,
    const std::string& request_id) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpReasonPhrase(status);
  out += kCrlf;
  out += "Content-Type: " + content_type;
  out += kCrlf;
  out += "Connection: close";
  out += kCrlf;
  for (const auto& [name, value] : extra) {
    out += name + ": " + value;
    out += kCrlf;
  }
  out += "X-Request-Id: " + request_id;
  out += kCrlf;
  out += kCrlf;
  return out;
}

bool SendAllFd(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

HttpResponse RetryLaterResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "text/plain";
  resp.body = std::move(body);
  resp.headers.emplace_back("Retry-After", "1");
  return resp;
}

Result<int> OpenClientSocket(const std::string& host, uint16_t port,
                             int recv_timeout_seconds,
                             int connect_timeout_seconds) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Internal("getaddrinfo " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  int last_err = ECONNREFUSED;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    bool connected = false;
    if (connect_timeout_seconds > 0) {
      // Nonblocking connect + poll so an unresponsive host costs a bounded
      // wait instead of the kernel's (minutes-long) SYN retry budget.
      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
      if (crc == 0) {
        connected = true;
      } else if (errno == EINPROGRESS) {
        struct pollfd p;
        p.fd = fd;
        p.events = POLLOUT;
        int prc = ::poll(&p, 1, connect_timeout_seconds * 1000);
        if (prc == 1) {
          int so_error = 0;
          socklen_t len = sizeof(so_error);
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
          if (so_error == 0) {
            connected = true;
          } else {
            last_err = so_error;
          }
        } else {
          last_err = prc == 0 ? ETIMEDOUT : errno;
        }
      } else {
        last_err = errno;
      }
      if (connected) ::fcntl(fd, F_SETFL, flags);
    } else {
      connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
      if (!connected) last_err = errno;
    }
    if (connected) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return Status::Internal("connect to " + host + ":" + port_str +
                            " failed: " + std::strerror(last_err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetRecvTimeoutMs(fd, static_cast<int64_t>(recv_timeout_seconds) * 1000);
  return fd;
}

/// One connection's state machine. Owned (and only ever touched) by the
/// event-loop thread; workers reach it exclusively through the completion
/// queue keyed by `id`.
struct Conn {
  int fd = -1;
  uint64_t id = 0;
  uint32_t ip = 0;

  enum State { kReadHead, kReadBody, kHandling, kWrite, kStream };
  State state = kReadHead;

  std::string in;      ///< unparsed request bytes (may hold pipelined reqs)
  std::string out;     ///< response/stream bytes not yet on the wire
  size_t out_off = 0;  ///< how much of `out` has been sent
  bool close_after_write = false;
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool peer_eof = false;    ///< peer half-closed; finish then close

  ParsedHead head;      ///< parse result while reading the body
  size_t head_len = 0;  ///< bytes of `in` covered by the head
  bool request_keep_alive = true;

  uint64_t deadline_ns = 0;  ///< 0 = no deadline armed
  enum Expiry { kSilentClose, k408Head, k408Body };
  Expiry expiry = kSilentClose;
  uint64_t head_start_ns = 0;  ///< first head byte (slow-loris budget anchor)
  uint64_t body_start_ns = 0;

  std::weak_ptr<ResponderCore> responder;  ///< in-flight request, if any
  bool stream_ended = false;
  bool closed = false;
};

}  // namespace

bool ParseDecimalU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// --- per-IP token bucket -----------------------------------------------------

/// One token bucket per peer IPv4 address: `rps` sustained, `burst` peak.
/// The map is bounded — when it outgrows kMaxBuckets, buckets that have
/// refilled to full (idle peers) are purged.
class IpRateLimiter {
 public:
  IpRateLimiter(double rps, double burst)
      : rps_(rps), burst_(burst > 0 ? burst : std::max(rps, 1.0)) {}

  bool Allow(uint32_t ip) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (buckets_.size() > kMaxBuckets) Purge(now);
    auto [it, fresh] = buckets_.try_emplace(ip);
    Bucket& b = it->second;
    if (fresh) {
      b.tokens = burst_;
    } else {
      double dt = std::chrono::duration<double>(now - b.last).count();
      b.tokens = std::min(burst_, b.tokens + dt * rps_);
    }
    b.last = now;
    if (b.tokens < 1.0) return false;
    b.tokens -= 1.0;
    return true;
  }

 private:
  struct Bucket {
    double tokens = 0;
    Clock::time_point last{};
  };

  static constexpr size_t kMaxBuckets = 4096;

  void Purge(Clock::time_point now) {
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      double dt = std::chrono::duration<double>(now - it->second.last).count();
      if (it->second.tokens + dt * rps_ >= burst_) {
        it = buckets_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const double rps_;
  const double burst_;
  std::mutex mu_;
  std::unordered_map<uint32_t, Bucket> buckets_;
};

// --- worker <-> loop plumbing ------------------------------------------------

/// State shared by the event loop, the worker pool, and every Responder a
/// handler may have copied out. Lives in a shared_ptr so a parked
/// Responder can outlive the server: once the loop exits it flips
/// `accepting` off and all further posts become no-ops.
struct HttpServer::Shared {
  struct Completion {
    enum Kind { kResponse, kStreamBegin, kStreamChunk, kStreamEnd };
    Kind kind = kResponse;
    uint64_t conn_id = 0;
    std::string request_id;
    uint64_t dispatch_ns = 0;
    HttpResponse resp;  ///< kResponse payload / kStreamBegin head fields
    std::string chunk;  ///< kStreamChunk payload
  };
  struct Job {
    HttpRequest request;
    std::shared_ptr<ResponderCore> core;
  };

  // Completion queue: any thread -> loop thread, eventfd-signalled.
  std::mutex mu;
  std::vector<Completion> completions;
  int event_fd = -1;
  bool accepting = true;  ///< false once the loop has exited

  // Job queue: loop thread -> workers.
  std::mutex job_mu;
  std::condition_variable job_cv;
  std::deque<Job> jobs;
  bool job_stop = false;

  void Post(Completion c) {
    std::lock_guard<std::mutex> lock(mu);
    if (!accepting) return;
    completions.push_back(std::move(c));
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
  }
};

/// The thread-safe core behind every Responder copy for one request.
/// Completion is a single atomic race (`completed`); all effects funnel
/// through Shared::Post so only the loop thread touches the socket.
struct ResponderCore {
  std::shared_ptr<HttpServer::Shared> shared;
  uint64_t conn_id = 0;
  std::string request_id;
  uint64_t dispatch_ns = 0;
  size_t buffer_cap = 0;

  std::atomic<bool> completed{false};
  std::atomic<bool> streaming{false};
  std::atomic<bool> ended{false};
  std::atomic<bool> alive{true};
  /// Producer-side view of unflushed stream bytes (loop refreshes it on
  /// every flush); approximate, used only to answer Write() backpressure.
  std::atomic<size_t> buffered{0};

  void SendResponse(HttpResponse resp) {
    if (completed.exchange(true)) return;
    HttpServer::Shared::Completion c;
    c.kind = HttpServer::Shared::Completion::kResponse;
    c.conn_id = conn_id;
    c.request_id = request_id;
    c.dispatch_ns = dispatch_ns;
    c.resp = std::move(resp);
    shared->Post(std::move(c));
  }

  bool StartStream(int status, const std::string& content_type,
                   std::vector<std::pair<std::string, std::string>> headers) {
    if (!alive.load(std::memory_order_relaxed)) return false;
    if (completed.exchange(true)) return false;
    streaming.store(true, std::memory_order_release);
    HttpServer::Shared::Completion c;
    c.kind = HttpServer::Shared::Completion::kStreamBegin;
    c.conn_id = conn_id;
    c.request_id = request_id;
    c.dispatch_ns = dispatch_ns;
    c.resp.status = status;
    c.resp.content_type = content_type;
    c.resp.headers = std::move(headers);
    shared->Post(std::move(c));
    return true;
  }

  bool WriteChunk(std::string_view chunk) {
    if (!streaming.load(std::memory_order_acquire) ||
        ended.load(std::memory_order_relaxed) ||
        !alive.load(std::memory_order_relaxed)) {
      return false;
    }
    size_t now_buffered =
        buffered.fetch_add(chunk.size(), std::memory_order_relaxed) +
        chunk.size();
    if (now_buffered > buffer_cap) {
      buffered.fetch_sub(chunk.size(), std::memory_order_relaxed);
      return false;  // slow consumer: stop producing, let it resume from cursor
    }
    HttpServer::Shared::Completion c;
    c.kind = HttpServer::Shared::Completion::kStreamChunk;
    c.conn_id = conn_id;
    c.chunk = std::string(chunk);
    shared->Post(std::move(c));
    return true;
  }

  void EndStream() {
    if (!streaming.load(std::memory_order_acquire)) return;
    if (ended.exchange(true)) return;
    HttpServer::Shared::Completion c;
    c.kind = HttpServer::Shared::Completion::kStreamEnd;
    c.conn_id = conn_id;
    shared->Post(std::move(c));
  }

  ~ResponderCore() {
    // Dropped without completing: a buggy route must never leak the
    // connection, so the request answers 500. A stream dropped without
    // End() is ended for it.
    if (!completed.load(std::memory_order_relaxed)) {
      completed.store(true, std::memory_order_relaxed);
      HttpServer::Shared::Completion c;
      c.kind = HttpServer::Shared::Completion::kResponse;
      c.conn_id = conn_id;
      c.request_id = request_id;
      c.dispatch_ns = dispatch_ns;
      c.resp = {.status = 500,
                .content_type = "text/plain",
                .body = "internal error\n"};
      shared->Post(std::move(c));
    } else if (streaming.load(std::memory_order_relaxed) &&
               !ended.load(std::memory_order_relaxed)) {
      HttpServer::Shared::Completion c;
      c.kind = HttpServer::Shared::Completion::kStreamEnd;
      c.conn_id = conn_id;
      shared->Post(std::move(c));
    }
  }
};

void Responder::Send(HttpResponse resp) const {
  if (core_) core_->SendResponse(std::move(resp));
}

bool Responder::BeginStream(
    int status, const std::string& content_type,
    std::vector<std::pair<std::string, std::string>> headers) const {
  return core_ != nullptr &&
         core_->StartStream(status, content_type, std::move(headers));
}

bool Responder::Write(std::string_view chunk) const {
  return core_ != nullptr && core_->WriteChunk(chunk);
}

void Responder::End() const {
  if (core_) core_->EndStream();
}

bool Responder::alive() const {
  return core_ != nullptr && core_->alive.load(std::memory_order_relaxed);
}

const std::string& Responder::request_id() const {
  static const std::string kEmpty;
  return core_ != nullptr ? core_->request_id : kEmpty;
}

// --- event loop --------------------------------------------------------------

/// The loop thread's world: the epoll set and the connection table. Tags
/// 0 (listener) and 1 (eventfd) are reserved; connections start at 2.
struct HttpServer::Loop {
  HttpServer* s = nullptr;
  int epoll_fd = -1;
  int event_fd = -1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<uint64_t> dead;  ///< ids to reap at the end of the iteration
  uint64_t next_id = 2;
  uint64_t last_sweep_ns = 0;
  bool listener_registered = true;
  uint64_t accept_retry_ns = 0;  ///< 0 = listener not parked on EMFILE

  static constexpr uint64_t kSweepEveryNs = 50'000'000ULL;    // 50ms
  static constexpr uint64_t kAcceptRetryNs = 20'000'000ULL;  // 20ms

  void Run() {
    std::vector<struct epoll_event> events(128);
    while (!s->stopping_.load(std::memory_order_relaxed)) {
      int n = ::epoll_wait(epoll_fd, events.data(),
                           static_cast<int>(events.size()), 50);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        uint32_t ev = events[i].events;
        if (tag == 0) {
          AcceptReady();
          continue;
        }
        if (tag == 1) {
          uint64_t v;
          while (::read(event_fd, &v, sizeof(v)) > 0) {
          }
          continue;
        }
        auto it = conns.find(tag);
        if (it == conns.end() || it->second->closed) continue;
        Conn* c = it->second.get();
        if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) OnReadable(c);
        if (!c->closed && (ev & EPOLLOUT)) Advance(c);
      }
      ProcessCompletions();
      if (s->draining_.load(std::memory_order_relaxed)) {
        if (listener_registered) {
          listener_registered = false;
          ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, s->listen_fd_, nullptr);
        }
        DrainSweep();
      }
      uint64_t now = NowNs();
      if (now - last_sweep_ns >= kSweepEveryNs) {
        last_sweep_ns = now;
        SweepDeadlines(now);
      }
      if (accept_retry_ns != 0 && now >= accept_retry_ns &&
          !s->draining_.load(std::memory_order_relaxed)) {
        // The EMFILE backoff elapsed: re-arm the parked listener and let
        // AcceptReady either drain the backlog or park it again.
        accept_retry_ns = 0;
        if (!listener_registered) {
          struct epoll_event lev;
          std::memset(&lev, 0, sizeof(lev));
          lev.events = EPOLLIN;
          lev.data.u64 = 0;
          if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, s->listen_fd_, &lev) ==
              0) {
            listener_registered = true;
          } else {
            accept_retry_ns = now + kAcceptRetryNs;
          }
        }
      }
      Reap();
    }
    // Hard stop: abort every connection. Parked Responders see alive()
    // turn false; their eventual posts land in a queue nobody reads and
    // are dropped once `accepting` flips below.
    for (auto& [id, c] : conns) {
      if (c->closed) continue;
      if (auto r = c->responder.lock()) {
        r->alive.store(false, std::memory_order_relaxed);
      }
      ::close(c->fd);
      s->held_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }
    conns.clear();
    s->active_connections_->Set(
        static_cast<double>(s->held_connections_.load()));
    std::lock_guard<std::mutex> lock(s->shared_->mu);
    s->shared_->accepting = false;
  }

  void AcceptReady() {
    for (;;) {
      struct sockaddr_in peer;
      socklen_t peer_len = sizeof(peer);
      int fd = ::accept(s->listen_fd_,
                        reinterpret_cast<struct sockaddr*>(&peer), &peer_len);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of fds with a level-triggered listener: the pending backlog
          // would wake epoll_wait every iteration and hot-spin the loop.
          // Park the listener and retry once the backoff window passes —
          // a closing connection frees the slot the backlog is waiting on.
          if (listener_registered) {
            listener_registered = false;
            ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, s->listen_fd_, nullptr);
            flight::FlightRecorder::Get().Record(
                "http", "accept_emfile_parked",
                s->held_connections_.load(std::memory_order_relaxed));
          }
          accept_retry_ns = NowNs() + kAcceptRetryNs;
          return;
        }
        return;  // EAGAIN, or the listener is gone
      }
      if (s->stopping_.load(std::memory_order_relaxed) ||
          s->draining_.load(std::memory_order_relaxed)) {
        ::close(fd);
        continue;
      }
      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      uint32_t ip =
          peer.sin_family == AF_INET ? ntohl(peer.sin_addr.s_addr) : 0;

      // Admission control: shed beyond the cap with an immediate 503 so a
      // connection flood can never grow server memory. The send is a
      // best-effort nonblocking write — a peer with a full socket buffer
      // just loses the courtesy body.
      if (s->held_connections_.load(std::memory_order_acquire) >=
          s->options_.max_connections) {
        s->n_shed_->Inc();
        flight::FlightRecorder::Get().Record(
            "http", "shed_503",
            s->held_connections_.load(std::memory_order_relaxed));
        std::string resp = SerializeResponse(
            RetryLaterResponse(503, "server overloaded\n"),
            /*keep_alive=*/false);
        [[maybe_unused]] ssize_t sn =
            ::send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }

      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->id = next_id++;
      c->ip = ip;
      RearmDeadline(c.get());
      struct epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.u64 = c->id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      size_t held =
          s->held_connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
      s->active_connections_->Set(static_cast<double>(held));
      s->n_accepted_->Inc();
      conns.emplace(c->id, std::move(c));
    }
  }

  void OnReadable(Conn* c) {
    if (c->peer_eof) return;
    char chunk[16384];
    for (;;) {
      ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        if (c->state == Conn::kStream) continue;  // streams ignore input
        bool was_empty = c->in.empty();
        c->in.append(chunk, static_cast<size_t>(n));
        if (c->in.size() >
            HttpServer::kMaxHeadBytes + s->options_.max_body_bytes) {
          CloseConn(c);  // peer is flooding faster than we parse
          return;
        }
        if (c->state == Conn::kReadHead) {
          if (was_empty) c->head_start_ns = NowNs();
          RearmDeadline(c);
        } else if (c->state == Conn::kReadBody) {
          RearmDeadline(c);
        }
        continue;
      }
      if (n == 0) {
        if (c->state == Conn::kStream) {
          CloseConn(c);  // stream consumer went away
          return;
        }
        c->peer_eof = true;
        UpdateEvents(c);  // stop polling EPOLLIN on an EOF'd socket
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    Advance(c);
  }

  /// Drive the state machine as far as readiness allows. Never recursive:
  /// every step either makes progress and loops, or returns.
  void Advance(Conn* c) {
    while (!c->closed) {
      switch (c->state) {
        case Conn::kReadHead:
          if (!StepHead(c)) return;
          break;
        case Conn::kReadBody:
          if (!StepBody(c)) return;
          break;
        case Conn::kHandling:
          return;  // a completion will move us on
        case Conn::kWrite: {
          if (!FlushOut(c)) return;
          if (!c->out.empty()) return;  // kernel buffer full; wait EPOLLOUT
          if (c->close_after_write) {
            CloseConn(c);
            return;
          }
          if (c->peer_eof && c->in.empty()) {
            CloseConn(c);
            return;
          }
          c->state = Conn::kReadHead;
          c->head_start_ns = c->in.empty() ? 0 : NowNs();
          RearmDeadline(c);
          break;  // maybe a pipelined request is already buffered
        }
        case Conn::kStream: {
          if (!FlushOut(c)) return;
          if (c->out.empty() && c->stream_ended) {
            CloseConn(c);
          }
          return;
        }
      }
    }
  }

  /// Returns false when the loop should stop (need more bytes / closed).
  bool StepHead(Conn* c) {
    size_t head_end = c->in.find(kHeadEnd);
    if (head_end == std::string::npos) {
      if (c->in.size() > HttpServer::kMaxHeadBytes) {
        QueueError(c, 400, "request head too large\n");
        return true;
      }
      if (c->peer_eof) {
        CloseConn(c);  // idle keep-alive close, or truncated request
        return false;
      }
      return false;
    }
    auto parsed = ParseRequestHead(
        std::string_view(c->in).substr(0, head_end + kHeadEnd.size()));
    if (!parsed) {
      QueueError(c, 400, "malformed request\n");
      return true;
    }
    if (parsed->has_transfer_encoding) {
      QueueError(c, 501, "transfer-encoding not supported\n");
      return true;
    }
    if (parsed->content_length > s->options_.max_body_bytes) {
      QueueError(c, 413, "body too large\n");
      return true;
    }
    c->head = std::move(*parsed);
    c->head_len = head_end + kHeadEnd.size();
    c->state = Conn::kReadBody;
    c->body_start_ns = NowNs();
    RearmDeadline(c);
    return true;
  }

  bool StepBody(Conn* c) {
    size_t total = c->head_len + c->head.content_length;
    if (c->in.size() < total) {
      if (c->peer_eof) CloseConn(c);  // truncated body
      return false;
    }
    c->head.request.body = c->in.substr(c->head_len, c->head.content_length);
    c->in.erase(0, total);
    c->request_keep_alive = c->head.keep_alive;
    Dispatch(c);
    return true;
  }

  void Dispatch(Conn* c) {
    const bool ka = c->request_keep_alive &&
                    !s->draining_.load(std::memory_order_relaxed);
    // Per-IP rate limit — answered before the handler runs, so a flooding
    // client costs parsing, not proving. Keep-alive is preserved: a
    // well-behaved client backs off and reuses the connection.
    if (s->limiter_ != nullptr && !s->limiter_->Allow(c->ip)) {
      s->n_rate_limited_->Inc();
      flight::FlightRecorder::Get().Record("http", "rate_limited_429");
      c->out = SerializeResponse(
          RetryLaterResponse(429, "rate limit exceeded\n"), ka);
      c->out_off = 0;
      c->close_after_write = !ka;
      c->state = Conn::kWrite;
      RearmDeadline(c);
      return;
    }
    s->n_requests_->Inc();
    HttpRequest request = std::move(c->head.request);
    c->head.request = HttpRequest{};
    // Correlation id: honor the client's X-Request-Id, else mint one.
    auto rid_it = request.headers.find("x-request-id");
    request.request_id =
        rid_it != request.headers.end() && !rid_it->second.empty()
            ? SanitizeRequestId(rid_it->second)
            : GenerateRequestId();
    auto core = std::make_shared<ResponderCore>();
    core->shared = s->shared_;
    core->conn_id = c->id;
    core->request_id = request.request_id;
    core->dispatch_ns = NowNs();
    core->buffer_cap = s->options_.max_stream_buffer_bytes;
    c->responder = core;
    c->state = Conn::kHandling;
    c->deadline_ns = 0;  // the handler owns the clock now
    {
      std::lock_guard<std::mutex> lock(s->shared_->job_mu);
      s->shared_->jobs.push_back(
          Shared::Job{std::move(request), std::move(core)});
    }
    s->shared_->job_cv.notify_one();
  }

  /// Protocol-violation responses close the connection and (matching the
  /// worker-pool transport) do not count toward the status-class counters
  /// — those meter dispatched handler responses.
  void QueueError(Conn* c, int status, std::string body) {
    c->out = SerializeResponse({.status = status,
                                .content_type = "text/plain",
                                .body = std::move(body)},
                               /*keep_alive=*/false);
    c->out_off = 0;
    c->close_after_write = true;
    c->state = Conn::kWrite;
    RearmDeadline(c);
  }

  /// Push buffered out-bytes to the kernel. False = connection closed.
  bool FlushOut(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);
      return false;
    }
    size_t pending = c->out.size() - c->out_off;
    if (pending == 0) {
      if (c->out_off > 0) {
        c->out.clear();
        c->out_off = 0;
      }
      if (c->want_write) {
        c->want_write = false;
        UpdateEvents(c);
      }
    } else {
      if (!c->want_write) {
        c->want_write = true;
        UpdateEvents(c);
      }
      RearmDeadline(c);  // stalled-write deadline
    }
    if (c->state == Conn::kStream) {
      if (auto r = c->responder.lock()) {
        r->buffered.store(pending, std::memory_order_relaxed);
      }
    }
    return true;
  }

  void UpdateEvents(Conn* c) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = (c->peer_eof ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (c->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = c->id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void RearmDeadline(Conn* c) {
    const uint64_t now = NowNs();
    const uint64_t recv_ns =
        s->options_.recv_timeout_seconds > 0
            ? static_cast<uint64_t>(s->options_.recv_timeout_seconds) *
                  1'000'000'000ULL
            : 0;
    const uint64_t head_ns =
        s->options_.header_timeout_seconds > 0
            ? static_cast<uint64_t>(s->options_.header_timeout_seconds) *
                  1'000'000'000ULL
            : 0;
    const uint64_t body_ns =
        s->options_.body_timeout_seconds > 0
            ? static_cast<uint64_t>(s->options_.body_timeout_seconds) *
                  1'000'000'000ULL
            : 0;
    switch (c->state) {
      case Conn::kReadHead:
        if (c->in.empty()) {
          // Idle keep-alive wait: plain inactivity timeout, closed silently.
          c->deadline_ns = recv_ns ? now + recv_ns : 0;
          c->expiry = Conn::kSilentClose;
        } else {
          // Mid-head: idle timer resets on progress, but the total head
          // budget is anchored at the first byte — a slow-loris peer
          // trickling one byte per interval still gets 408.
          uint64_t d = recv_ns ? now + recv_ns : 0;
          if (head_ns) {
            uint64_t hd = c->head_start_ns + head_ns;
            d = d ? std::min(d, hd) : hd;
          }
          c->deadline_ns = d;
          c->expiry = Conn::k408Head;
        }
        break;
      case Conn::kReadBody: {
        uint64_t d = recv_ns ? now + recv_ns : 0;
        if (body_ns) {
          uint64_t bd = c->body_start_ns + body_ns;
          d = d ? std::min(d, bd) : bd;
        }
        c->deadline_ns = d;
        c->expiry = Conn::k408Body;
        break;
      }
      case Conn::kHandling:
        c->deadline_ns = 0;
        break;
      case Conn::kWrite:
        c->deadline_ns = recv_ns ? now + recv_ns : 0;
        c->expiry = Conn::kSilentClose;
        break;
      case Conn::kStream:
        // Only a stalled flush is a deadline; an idle stream waits for
        // events indefinitely.
        c->deadline_ns =
            !c->out.empty() && recv_ns ? now + recv_ns : 0;
        c->expiry = Conn::kSilentClose;
        break;
    }
  }

  void SweepDeadlines(uint64_t now) {
    for (auto& [id, cptr] : conns) {
      Conn* c = cptr.get();
      if (c->closed || c->deadline_ns == 0 || now < c->deadline_ns) continue;
      switch (c->expiry) {
        case Conn::kSilentClose:
          CloseConn(c);
          break;
        case Conn::k408Head:
          s->n_timed_out_->Inc();
          flight::FlightRecorder::Get().Record("http", "timeout_408_head");
          QueueError(c, 408, "timed out reading request head\n");
          Advance(c);
          break;
        case Conn::k408Body:
          s->n_timed_out_->Inc();
          flight::FlightRecorder::Get().Record("http", "timeout_408_body");
          QueueError(c, 408, "timed out reading request body\n");
          Advance(c);
          break;
      }
    }
  }

  void ProcessCompletions() {
    std::vector<Shared::Completion> batch;
    {
      std::lock_guard<std::mutex> lock(s->shared_->mu);
      batch.swap(s->shared_->completions);
    }
    for (auto& comp : batch) {
      auto it = conns.find(comp.conn_id);
      if (it == conns.end() || it->second->closed) continue;
      Conn* c = it->second.get();
      switch (comp.kind) {
        case Shared::Completion::kResponse: {
          if (c->state != Conn::kHandling) break;
          comp.resp.headers.emplace_back("X-Request-Id", comp.request_id);
          s->CountResponseClass(comp.resp.status);
          s->request_seconds_->Observe(
              static_cast<double>(NowNs() - comp.dispatch_ns) * 1e-9);
          // Keep-alive decided at completion time so in-flight requests
          // finished during a drain answer with Connection: close.
          const bool ka = c->request_keep_alive &&
                          !s->draining_.load(std::memory_order_relaxed);
          c->out = SerializeResponse(comp.resp, ka);
          c->out_off = 0;
          c->close_after_write = !ka;
          c->state = Conn::kWrite;
          RearmDeadline(c);
          Advance(c);
          break;
        }
        case Shared::Completion::kStreamBegin: {
          if (c->state != Conn::kHandling) break;
          s->CountResponseClass(comp.resp.status);
          s->request_seconds_->Observe(
              static_cast<double>(NowNs() - comp.dispatch_ns) * 1e-9);
          c->out += SerializeStreamHead(comp.resp.status,
                                        comp.resp.content_type,
                                        comp.resp.headers, comp.request_id);
          c->state = Conn::kStream;
          c->stream_ended = false;
          if (s->draining_.load(std::memory_order_relaxed)) {
            c->stream_ended = true;  // flush the head, then close
            if (auto r = c->responder.lock()) {
              r->alive.store(false, std::memory_order_relaxed);
            }
          }
          RearmDeadline(c);
          Advance(c);
          break;
        }
        case Shared::Completion::kStreamChunk: {
          if (c->state != Conn::kStream || c->stream_ended) break;
          size_t pending = c->out.size() - c->out_off;
          if (pending + comp.chunk.size() >
              s->options_.max_stream_buffer_bytes) {
            // Authoritative backpressure: the consumer is slower than the
            // producer and the bounded buffer is full — disconnect; the
            // subscriber re-attaches and resumes from its cursor.
            flight::FlightRecorder::Get().Record("http", "stream_overflow");
            CloseConn(c);
            break;
          }
          c->out += comp.chunk;
          Advance(c);
          break;
        }
        case Shared::Completion::kStreamEnd: {
          if (c->state != Conn::kStream) break;
          c->stream_ended = true;
          if (auto r = c->responder.lock()) {
            r->alive.store(false, std::memory_order_relaxed);
          }
          Advance(c);
          break;
        }
      }
    }
  }

  /// Graceful-drain pass, run every loop iteration while draining: idle
  /// keep-alive connections close now, live streams end (flushing what is
  /// buffered), in-flight requests are left to finish on their own.
  void DrainSweep() {
    for (auto& [id, cptr] : conns) {
      Conn* c = cptr.get();
      if (c->closed) continue;
      if (c->state == Conn::kReadHead && c->in.empty() && c->out.empty()) {
        CloseConn(c);
      } else if (c->state == Conn::kStream && !c->stream_ended) {
        c->stream_ended = true;
        if (auto r = c->responder.lock()) {
          r->alive.store(false, std::memory_order_relaxed);
        }
        Advance(c);
      }
    }
  }

  void CloseConn(Conn* c) {
    if (c->closed) return;
    c->closed = true;
    if (auto r = c->responder.lock()) {
      r->alive.store(false, std::memory_order_relaxed);
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    dead.push_back(c->id);
    size_t held =
        s->held_connections_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    s->active_connections_->Set(static_cast<double>(held));
  }

  /// Deferred erase: CloseConn may run mid-iteration over `conns`, so the
  /// table only shrinks here, between iterations.
  void Reap() {
    for (uint64_t id : dead) conns.erase(id);
    dead.clear();
  }
};

// --- server lifecycle --------------------------------------------------------

HttpServer::HttpServer(Options options, AsyncHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  metrics::Registry& reg = options_.registry != nullptr
                               ? *options_.registry
                               : metrics::Registry::Default();
  n_accepted_ = reg.GetCounter("vchain_http_accepted_total",
                               "Connections admitted to the event loop");
  n_requests_ = reg.GetCounter("vchain_http_requests_total",
                               "Requests dispatched to the handler");
  n_shed_ = reg.GetCounter("vchain_http_shed_total",
                           "Connections shed with 503 at accept");
  n_rate_limited_ = reg.GetCounter("vchain_http_rate_limited_total",
                                   "Requests answered 429 by the per-IP "
                                   "token bucket");
  n_timed_out_ = reg.GetCounter(
      "vchain_http_timeout_total",
      "Connections dropped for slow head/body progress (408)");
  const char* status_name = "vchain_http_responses_total";
  const char* status_help = "Responses by status class";
  n_status_2xx_ = reg.GetCounter(status_name, status_help, {{"class", "2xx"}});
  n_status_3xx_ = reg.GetCounter(status_name, status_help, {{"class", "3xx"}});
  n_status_4xx_ = reg.GetCounter(status_name, status_help, {{"class", "4xx"}});
  n_status_5xx_ = reg.GetCounter(status_name, status_help, {{"class", "5xx"}});
  active_connections_ =
      reg.GetGauge("vchain_http_active_connections",
                   "Connections held right now (idle + in service)");
  request_seconds_ = reg.GetLatencyHistogram(
      "vchain_http_request_seconds",
      "Handler wall time per dispatched request");
}

void HttpServer::CountResponseClass(int status) {
  if (status >= 500) {
    n_status_5xx_->Inc();
  } else if (status >= 400) {
    n_status_4xx_->Inc();
  } else if (status >= 300) {
    n_status_3xx_->Inc();
  } else {
    n_status_2xx_->Inc();
  }
}

Result<std::unique_ptr<HttpServer>> HttpServer::Start(Options options,
                                                      AsyncHandler handler) {
  if (options.num_threads == 0) options.num_threads = 1;
  if (options.max_connections == 0) options.max_connections = 1;
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(options), std::move(handler)));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->options_.port);
  if (::inet_pton(AF_INET, server->options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   server->options_.bind_address);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 512) != 0) {
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    ::close(fd);
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  int lflags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, lflags | O_NONBLOCK);
  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  if (server->options_.rate_limit_rps > 0) {
    server->limiter_ = std::make_unique<IpRateLimiter>(
        server->options_.rate_limit_rps, server->options_.rate_limit_burst);
  }

  int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (efd < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    ::close(efd);
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  server->shared_ = std::make_shared<Shared>();
  server->shared_->event_fd = efd;
  server->loop_ = std::make_unique<Loop>();
  server->loop_->s = server.get();
  server->loop_->epoll_fd = epfd;
  server->loop_->event_fd = efd;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listener tag
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, server->listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // eventfd tag
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, efd, &ev);

  for (size_t i = 0; i < server->options_.num_threads; ++i) {
    server->workers_.emplace_back([srv = server.get()] { srv->WorkerMain(); });
  }
  server->loop_thread_ = std::thread([srv = server.get()] { srv->LoopMain(); });
  return server;
}

Result<std::unique_ptr<HttpServer>> HttpServer::Start(Options options,
                                                      Handler handler) {
  // The one-line sync adapter: buffered routes run unchanged on the loop.
  return Start(std::move(options),
               AsyncHandler([h = std::move(handler)](const HttpRequest& req,
                                                     Responder responder) {
                 responder.Send(h(req));
               }));
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::LoopMain() { loop_->Run(); }

void HttpServer::WorkerMain() {
  for (;;) {
    Shared::Job job;
    {
      std::unique_lock<std::mutex> lock(shared_->job_mu);
      shared_->job_cv.wait(lock, [this] {
        return shared_->job_stop || !shared_->jobs.empty();
      });
      if (shared_->job_stop) return;  // Stop() aborts queued work
      job = std::move(shared_->jobs.front());
      shared_->jobs.pop_front();
    }
    // The id is made ambient for every log line the handler emits
    // (thread-local; one job per worker at a time).
    logging::ScopedRequestId rid_scope(job.request.request_id);
    try {
      handler_(job.request, Responder(job.core));
    } catch (...) {
      // A throwing handler is a programming error upstream, but answering
      // 500 beats tearing down the whole server. No-op if the handler
      // already completed before throwing.
      Responder(job.core).Send({.status = 500,
                                .content_type = "text/plain",
                                .body = "internal error\n"});
    }
  }
}

void HttpServer::Stop() {
  if (stopping_.exchange(true)) {
    // Sequential second call (Drain then destructor): finish the joins.
    if (loop_thread_.joinable()) loop_thread_.join();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  flight::FlightRecorder::Get().Record("http", "server_stop", port_);
  {
    // Kick the loop out of epoll_wait. Post-free write: the eventfd only
    // closes after the join below, and `accepting` guards the late case.
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->accepting && shared_->event_fd >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(shared_->event_fd, &one, sizeof(one));
    }
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(shared_->job_mu);
    shared_->job_stop = true;
  }
  shared_->job_cv.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  {
    // Queued-but-never-run jobs die here; their cores post into a queue
    // nobody reads (accepting == false), which is a no-op.
    std::lock_guard<std::mutex> lock(shared_->job_mu);
    shared_->jobs.clear();
  }
  if (loop_ != nullptr && loop_->epoll_fd >= 0) {
    ::close(loop_->epoll_fd);
    loop_->epoll_fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->event_fd >= 0) {
      ::close(shared_->event_fd);
      shared_->event_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::Drain(int timeout_seconds) {
  if (draining_.exchange(true) || stopping_.load(std::memory_order_relaxed)) {
    Stop();  // second caller (or raced with Stop): fall through to hard stop
    return;
  }
  flight::FlightRecorder::Get().Record("http", "server_drain", port_);
  // Refuse new connections; the loop deregisters the listener and starts
  // its drain sweeps (idle connections close, streams end, in-flight
  // requests finish with Connection: close) on its next iteration.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->accepting && shared_->event_fd >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(shared_->event_fd, &one, sizeof(one));
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(timeout_seconds);
  while (held_connections_.load(std::memory_order_acquire) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop();
}

// --- client ------------------------------------------------------------------

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Status HttpConnection::Connect() {
  if (fd_ >= 0) return Status::OK();
  auto fd = OpenClientSocket(options_.host, options_.port,
                             options_.recv_timeout_seconds,
                             options_.connect_timeout_seconds);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  return Status::OK();
}

Status HttpConnection::SendAll(std::string_view data) {
  if (!SendAllFd(fd_, data)) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    return Status::Internal("send to " + options_.host + ":" +
                            std::to_string(options_.port) +
                            " failed: " + std::strerror(err));
  }
  return Status::OK();
}

Result<HttpResponse> HttpConnection::RoundTrip(
    const std::string& method, const std::string& target,
    std::string_view body, const std::string& content_type,
    bool* sent_on_wire,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  if (sent_on_wire != nullptr) *sent_on_wire = false;
  const std::string peer =
      options_.host + ":" + std::to_string(options_.port);
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: " + peer + "\r\n";
  request += "Content-Type: " + content_type + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Connection: keep-alive\r\n\r\n";
  request.append(body.data(), body.size());

  // A kept-alive socket may have been closed by the peer since the last
  // round-trip; retry the whole exchange once on a fresh connection.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    VCHAIN_RETURN_IF_ERROR(Connect());
    if (sent_on_wire != nullptr) *sent_on_wire = true;
    {
      Status sent = SendAll(request);
      if (!sent.ok()) {
        if (reused) continue;  // stale keep-alive; one fresh retry
        return sent;
      }
    }

    std::string buf;
    size_t head_end;
    Status recv_failure = Status::OK();
    while ((head_end = buf.find(kHeadEnd)) == std::string::npos) {
      if (buf.size() > HttpServer::kMaxHeadBytes) {
        return Status::Corruption("response head too large");
      }
      int err = 0;
      RecvOutcome out = RecvMore(fd_, &buf, &err);
      if (out == RecvOutcome::kData) continue;
      if (out == RecvOutcome::kTimeout) {
        recv_failure = Status::Internal(
            "recv from " + peer + " timed out after " +
            std::to_string(options_.recv_timeout_seconds) + "s");
      } else if (out == RecvOutcome::kError) {
        recv_failure = Status::Internal("recv from " + peer +
                                        " failed: " + std::strerror(err));
      } else {
        recv_failure = Status::Internal("connection to " + peer +
                                        " closed by peer mid-response");
      }
      break;
    }
    if (!recv_failure.ok()) {
      bool clean_early_close = buf.empty();
      ::close(fd_);
      fd_ = -1;
      // A reused connection the server closed before sending anything is a
      // stale keep-alive, not a failure — retry once on a fresh socket.
      if (reused && clean_early_close) continue;
      return recv_failure;
    }

    std::string_view head = std::string_view(buf).substr(0, head_end);
    size_t line_end = head.find(kCrlf);
    std::string_view status_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
      return Status::Corruption("malformed status line");
    }
    uint64_t status_code = 0;
    if (!ParseDecimalU64(status_line.substr(9, 3), &status_code)) {
      return Status::Corruption("malformed status code");
    }

    HttpResponse resp;
    resp.status = static_cast<int>(status_code);
    size_t content_length = 0;
    bool have_length = false;
    bool keep_alive = true;
    std::string_view rest = head.substr(
        line_end == std::string_view::npos ? head.size() : line_end + 2);
    while (!rest.empty()) {
      size_t eol = rest.find(kCrlf);
      std::string_view line =
          eol == std::string_view::npos ? rest : rest.substr(0, eol);
      rest = eol == std::string_view::npos ? std::string_view{}
                                           : rest.substr(eol + 2);
      if (line.empty()) continue;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return Status::Corruption("malformed response header");
      }
      std::string key = ToLower(line.substr(0, colon));
      std::string value(Trim(line.substr(colon + 1)));
      if (key == "content-length") {
        uint64_t v = 0;
        if (have_length || !ParseDecimalU64(value, &v) ||
            v > options_.max_response_bytes) {
          return Status::Corruption("bad content-length");
        }
        have_length = true;
        content_length = v;
      } else if (key == "content-type") {
        resp.content_type = value;
      } else if (key == "connection") {
        if (ToLower(value) == "close") keep_alive = false;
      } else {
        resp.headers.emplace_back(std::move(key), std::move(value));
      }
    }
    if (!have_length) {
      return Status::Corruption("response without content-length");
    }

    size_t total = head_end + kHeadEnd.size() + content_length;
    while (buf.size() < total) {
      int err = 0;
      RecvOutcome out = RecvMore(fd_, &buf, &err);
      if (out == RecvOutcome::kData) continue;
      ::close(fd_);
      fd_ = -1;
      if (out == RecvOutcome::kTimeout) {
        return Status::Internal(
            "recv from " + peer + " timed out after " +
            std::to_string(options_.recv_timeout_seconds) +
            "s mid-body");
      }
      if (out == RecvOutcome::kError) {
        return Status::Internal("recv from " + peer +
                                " failed mid-body: " + std::strerror(err));
      }
      return Status::Internal("connection to " + peer +
                              " closed by peer mid-body");
    }
    resp.body = buf.substr(head_end + kHeadEnd.size(), content_length);
    if (!keep_alive) {
      ::close(fd_);
      fd_ = -1;
    }
    return resp;
  }
  return Status::Internal("request to " + peer + " failed after reconnect");
}

}  // namespace vchain::net
