// SpServer — a vchain::Service published over HTTP (the paper's SP as an
// actual network service; Fig 3's client/SP boundary becomes a socket).
//
// Endpoints:
//   POST /query        JSON query (net/wire.h)  ->  canonical response
//                      bytes verbatim as the body; X-Vchain-Vo-Bytes,
//                      X-Vchain-Results, X-Vchain-Engine metadata headers
//   POST /query_batch  {"queries":[...]}        ->  binary batch frame
//   GET  /headers?from=&to=                     ->  binary header page
//                      (X-Vchain-Tip = chain height; pages are capped, the
//                      client loops until its light client reaches the tip)
//   GET  /metrics      Prometheus text exposition (version 0.0.4) of the
//                      metrics registry (HttpServer::Options::registry, the
//                      process-wide one by default): store, service, and
//                      HTTP tiers plus the service-state gauges this server
//                      exports while running (block height, degraded and
//                      durable flags, checkpoint seq, cache hit/miss/evict
//                      counts). The server's only stats surface; the
//                      engine rides /healthz's X-Vchain-Engine header
//   GET  /healthz      "ok\n" + X-Vchain-Engine (liveness probe); 503
//                      "degraded: ..." once the service is read-only after
//                      a storage fault — a load balancer drains writes but
//                      queries keep serving
//   GET  /debug/traces retained span trees (sampled + slowest) as JSON
//   GET  /debug/events the process flight recorder's recent-event ring
//   GET  /debug/config effective ServiceOptions/ChainConfig with per-field
//                      provenance ("default" vs "set")
//                      — all three only with Options.debug_endpoints; they
//                      are the generic 404 otherwise
//   POST /subscribe    {"query": <query>} -> {"id": N, "cursor": H}; register
//                      a standing query, H is where to start polling /events
//   POST /unsubscribe  {"id": N} -> {"ok": true}
//   GET  /events?id=&cursor=&max=&wait_ms=
//                      the subscriber's events for heights >= cursor as a
//                      binary event frame (net/wire.h). With wait_ms and no
//                      events ready, the request parks on the event hub (no
//                      thread held) until an append produces events or the
//                      wait expires — long-poll. With `Accept:
//                      text/event-stream` the response is an SSE stream
//                      instead: one `id: <height>` + base64 `data:` record
//                      per notification, delivered as blocks are mined. A
//                      slow SSE consumer trips the per-connection stream
//                      buffer cap and is dropped; it reconnects with its
//                      last cursor and the service redelivers (bounded
//                      memory, at-least-once).
//
// Observability: send `X-Vchain-Trace: 1` on POST /query and the response
// carries the server's per-stage breakdown (core/query_trace.h) as JSON in
// an `X-Vchain-Trace` response header. The trace rides a header, never the
// body — the response bytes stay the canonical <R, VO> encoding verbatim,
// bit-identical with tracing on or off, so verification is unaffected.
// Queries slower than Options.slow_query_ms are logged at warn level with
// one `<stage>_ms` per core::kQueryStages entry and the ambient request id.
// A query that asks for neither is handed to the Service untraced, so
// ServiceOptions::tracing = false holds on the wire too.
//
// Availability: the embedded HttpServer enforces the connection cap, per-IP
// rate limit (HttpServer::Options), and slow-loris timeouts; Drain() is the
// graceful shutdown used by vchain_spd's signal handler — stop accepting,
// finish in-flight requests, then a final service Sync().
//
// The server is a thin routing shim: all SP semantics live in
// vchain::Service, whose Query path is already thread-safe under
// concurrent callers — the HTTP workers call straight into it, no extra
// locking. Nothing returned here needs to be trusted; clients verify the
// response bytes against their own light-client headers.

#ifndef VCHAIN_NET_SP_SERVER_H_
#define VCHAIN_NET_SP_SERVER_H_

#include <memory>

#include "api/service.h"
#include "common/metrics.h"
#include "net/http.h"

namespace vchain::net {

class SpServer {
 public:
  struct Options {
    HttpServer::Options http;
    /// Cap on GET /headers page size (clients page; see SpClient).
    size_t max_headers_per_page = 4096;
    /// Queries slower than this (server-side, serialization included) are
    /// logged at warn level with their stage breakdown. 0 disables.
    uint64_t slow_query_ms = 0;
    /// Serve GET /debug/traces (retained span trees), /debug/events (the
    /// flight-recorder ring), and /debug/config (effective configuration
    /// with provenance). Off by default so the public surface is unchanged:
    /// the routes answer the generic 404 when disabled.
    bool debug_endpoints = false;
  };

  /// Cap on a GET /events long-poll park (`wait_ms` is clamped to this);
  /// bounds how long a drained server waits on idle subscribers.
  static constexpr uint64_t kMaxEventsWaitMs = 30000;

  /// Start serving `service` (not owned; must outlive the server).
  static Result<std::unique_ptr<SpServer>> Start(api::Service* service,
                                                 Options options);

  ~SpServer();

  /// Hard stop: abort in-flight requests (parked /events waiters are
  /// completed with whatever their cursor can see first).
  void Stop();

  /// Graceful stop: finish parked /events waiters, stop accepting, finish
  /// in-flight requests, then fsync the service's store so everything
  /// served as durable actually is. Returns the final Sync status.
  Status Drain(int timeout_seconds = 10);

  uint16_t port() const { return http_->port(); }

 private:
  /// Parks long-poll and SSE /events waiters off-thread and completes them
  /// when Service::Append reports a new tip (or their wait expires).
  struct EventHub;

  SpServer();
  void Handle(const HttpRequest& req, Responder responder);
  HttpResponse HandleSync(const HttpRequest& req) const;
  HttpResponse HandleQuery(const HttpRequest& req) const;
  void HandleEvents(const HttpRequest& req, Responder responder);
  /// Deregister the ServiceStats collector from the registry (idempotent).
  /// Must happen before the Service can die — the collector reads it.
  void RemoveCollector();
  /// Detach the append listener and finish every parked waiter (idempotent).
  void ShutdownHub();

  api::Service* service_ = nullptr;
  Options options_;
  std::unique_ptr<HttpServer> http_;
  std::unique_ptr<EventHub> hub_;
  metrics::Registry* registry_ = nullptr;
  /// vchain_http_route_requests_total children, looked up once in Start in
  /// the registry /metrics writes.
  struct RouteCounters {
    metrics::Counter* healthz = nullptr;
    metrics::Counter* scrape = nullptr;  ///< /metrics
    metrics::Counter* headers = nullptr;
    metrics::Counter* query = nullptr;
    metrics::Counter* query_batch = nullptr;
    metrics::Counter* subscribe = nullptr;
    metrics::Counter* unsubscribe = nullptr;
    metrics::Counter* events = nullptr;
    metrics::Counter* debug = nullptr;
  } routes_;
  size_t collector_id_ = 0;
  bool collector_registered_ = false;
};

}  // namespace vchain::net

#endif  // VCHAIN_NET_SP_SERVER_H_
