#include "net/sp_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "net/wire.h"

namespace vchain::net {

namespace {

HttpResponse TextResponse(int status, std::string body) {
  return {.status = status,
          .content_type = "text/plain",
          .body = std::move(body)};
}

HttpResponse ErrorResponse(const Status& st) {
  return TextResponse(HttpStatusFor(st), st.ToString() + "\n");
}

HttpResponse EventFrameResponse(const api::SubscriptionEventBatch& batch) {
  HttpResponse resp;
  Bytes frame = EncodeEventFrame(batch);
  resp.body.assign(frame.begin(), frame.end());
  return resp;
}

/// One SSE record per notification: the event's height as the record id (a
/// reconnecting client resumes with cursor = last id + 1), the canonical
/// bytes base64-inside `data:` — text framing never touches the proof
/// encoding.
std::string SseRecord(const api::SubscriptionEvent& ev) {
  std::string out = "id: " + std::to_string(ev.height) + "\ndata: ";
  out += Base64Encode(
      ByteSpan(ev.notification_bytes.data(), ev.notification_bytes.size()));
  out += "\n\n";
  return out;
}

bool TraceRequested(const HttpRequest& req) {
  auto it = req.headers.find("x-vchain-trace");
  return it != req.headers.end() && it->second == "1";
}

}  // namespace

/// The subscriber parking lot. A GET /events request with nothing to send
/// does not hold a worker thread: its Responder is parked here and one hub
/// thread completes it when Service::Append bumps the tip (listener →
/// OnAppend), its long-poll wait expires, or the server shuts down. SSE
/// waiters stay parked across deliveries until the client disconnects.
struct SpServer::EventHub {
  struct Waiter {
    Responder responder;
    uint32_t id = 0;
    uint64_t cursor = 0;
    size_t max_events = 64;
    bool sse = false;
    uint64_t deadline_ns = 0;  ///< long-poll completion deadline (0 for SSE)
  };

  explicit EventHub(api::Service* service) : service(service) {
    thread = std::thread([this] { Run(); });
  }
  ~EventHub() { Shutdown(); }

  /// Append listener: cheap flag + wake, called on the mining thread.
  void OnAppend() {
    {
      std::lock_guard<std::mutex> lock(mu);
      dirty = true;
    }
    cv.notify_all();
  }

  void Park(Waiter w) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!stop) {
        waiters.push_back(std::move(w));
        cv.notify_all();
        return;
      }
    }
    // Shut down between dispatch and park: complete inline.
    Step(&w, metrics::MonotonicNanos(), /*tip_advanced=*/true, /*final=*/true);
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    if (thread.joinable()) thread.join();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      // 50ms tick bounds deadline latency; dirty/stop wake immediately.
      cv.wait_for(lock, std::chrono::milliseconds(50),
                  [this] { return stop || dirty; });
      if (stop) break;
      const bool tip_advanced = dirty;
      dirty = false;
      if (waiters.empty()) continue;
      std::vector<Waiter> work(std::make_move_iterator(waiters.begin()),
                               std::make_move_iterator(waiters.end()));
      waiters.clear();
      lock.unlock();
      const uint64_t now = metrics::MonotonicNanos();
      std::vector<Waiter> keep;
      for (Waiter& w : work) {
        if (!Step(&w, now, tip_advanced, /*final=*/false)) {
          keep.push_back(std::move(w));
        }
      }
      lock.lock();
      for (Waiter& w : keep) waiters.push_back(std::move(w));
    }
    std::vector<Waiter> work(std::make_move_iterator(waiters.begin()),
                             std::make_move_iterator(waiters.end()));
    waiters.clear();
    lock.unlock();
    const uint64_t now = metrics::MonotonicNanos();
    for (Waiter& w : work) {
      Step(&w, now, /*tip_advanced=*/true, /*final=*/true);
    }
  }

  /// Advance one waiter; true = complete (responded, stream ended, or the
  /// client went away). `final` forces completion (shutdown/drain).
  bool Step(Waiter* w, uint64_t now, bool tip_advanced, bool final) {
    if (!w->responder.alive()) return true;
    const bool expired =
        !w->sse && w->deadline_ns != 0 && now >= w->deadline_ns;
    if (!tip_advanced && !expired && !final) return false;
    if (w->sse) {
      // Pump everything available; the per-connection stream buffer cap is
      // the backpressure valve (overflow drops the connection, the client
      // reconnects with its last id and the service redelivers).
      for (;;) {
        auto batch = service->EventsSince(w->id, w->cursor, w->max_events);
        if (!batch.ok()) {  // unsubscribed (or service gone): end the stream
          w->responder.End();
          return true;
        }
        if (batch.value().events.empty()) break;
        std::string out;
        for (const api::SubscriptionEvent& ev : batch.value().events) {
          out += SseRecord(ev);
        }
        if (!w->responder.Write(out)) return true;  // overflow or closed
        w->cursor = batch.value().next_cursor;
      }
      if (final) {
        w->responder.End();
        return true;
      }
      return false;
    }
    auto batch = service->EventsSince(w->id, w->cursor, w->max_events);
    if (!batch.ok()) {
      w->responder.Send(ErrorResponse(batch.status()));
      return true;
    }
    if (!batch.value().events.empty() || expired || final) {
      w->responder.Send(EventFrameResponse(batch.value()));
      return true;
    }
    return false;
  }

  api::Service* service;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Waiter> waiters;
  bool dirty = false;
  bool stop = false;
  std::thread thread;
};

SpServer::SpServer() = default;

Result<std::unique_ptr<SpServer>> SpServer::Start(api::Service* service,
                                                  Options options) {
  if (service == nullptr) {
    return Status::InvalidArgument("SpServer requires a service");
  }
  std::unique_ptr<SpServer> server(new SpServer());
  server->service_ = service;
  server->options_ = options;
  // /metrics is the server's one stats exposition: the route counters and
  // the service's observable state, as gauges refreshed at scrape time, go
  // into the registry it writes. The collector holds a raw Service pointer,
  // so it is removed in Stop/Drain/~SpServer — all of which precede the
  // service's death per the Start() contract (service must outlive the
  // server).
  server->registry_ = options.http.registry != nullptr
                          ? options.http.registry
                          : &metrics::Registry::Default();
  {
    metrics::Registry& r = *server->registry_;
    auto route = [&r](const char* name) {
      return r.GetCounter("vchain_http_route_requests_total",
                          "Requests dispatched, by endpoint",
                          {{"route", name}});
    };
    server->routes_ = {.healthz = route("/healthz"),
                       .scrape = route("/metrics"),
                       .headers = route("/headers"),
                       .query = route("/query"),
                       .query_batch = route("/query_batch"),
                       .subscribe = route("/subscribe"),
                       .unsubscribe = route("/unsubscribe"),
                       .events = route("/events"),
                       // Disabled debug routes leave no trace, not even
                       // a zero counter.
                       .debug = options.debug_endpoints ? route("/debug")
                                                        : nullptr};
    metrics::Gauge* blocks =
        r.GetGauge("vchain_service_blocks", "Chain height (sealed blocks)");
    metrics::Gauge* degraded = r.GetGauge(
        "vchain_service_degraded",
        "1 once a storage fault forced read-only mode, else 0");
    metrics::Gauge* durable = r.GetGauge(
        "vchain_service_durable", "1 when blocks persist to a store, else 0");
    metrics::Gauge* subs = r.GetGauge("vchain_service_subscriptions_active",
                                      "Standing queries registered");
    metrics::Gauge* sub_pending =
        r.GetGauge("vchain_service_subscription_events_pending",
                   "Subscription events held in the bounded redelivery log");
    metrics::Gauge* sub_ckpt_seq =
        r.GetGauge("vchain_service_sub_checkpoint_seq",
                   "Sequence number of the latest durable subscription "
                   "checkpoint (0 = none)");
    metrics::Gauge* pc_hits =
        r.GetGauge("vchain_service_proof_cache_lru_hits",
                   "Lifetime hits of the shared disjointness-proof cache");
    metrics::Gauge* pc_misses =
        r.GetGauge("vchain_service_proof_cache_lru_misses",
                   "Lifetime misses of the shared disjointness-proof cache");
    metrics::Gauge* pc_evictions =
        r.GetGauge("vchain_service_proof_cache_lru_evictions",
                   "Lifetime evictions of the shared disjointness-proof cache");
    metrics::Gauge* bc_hits =
        r.GetGauge("vchain_service_block_cache_hits",
                   "Lifetime hits of the decoded-block cache");
    metrics::Gauge* bc_misses =
        r.GetGauge("vchain_service_block_cache_misses",
                   "Lifetime misses of the decoded-block cache");
    metrics::Gauge* bc_evictions =
        r.GetGauge("vchain_service_block_cache_evictions",
                   "Lifetime evictions of the decoded-block cache");
    metrics::Gauge* trace_ring =
        r.GetGauge("vchain_service_trace_ring_occupancy",
                   "Span trees retained for GET /debug/traces");
    metrics::Gauge* flight_seq =
        r.GetGauge("vchain_service_flight_recorder_seq",
                   "Events ever recorded by the process flight recorder");
    api::Service* svc = service;
    server->collector_id_ = r.AddCollector([=] {
      api::ServiceStats s = svc->Stats();
      blocks->Set(static_cast<double>(s.num_blocks));
      degraded->Set(s.degraded ? 1 : 0);
      durable->Set(s.durable ? 1 : 0);
      subs->Set(static_cast<double>(s.subscriptions_active));
      sub_pending->Set(static_cast<double>(s.subscription_events_pending));
      sub_ckpt_seq->Set(static_cast<double>(s.sub_checkpoint_seq));
      pc_hits->Set(static_cast<double>(s.proof_cache.hits));
      pc_misses->Set(static_cast<double>(s.proof_cache.misses));
      pc_evictions->Set(static_cast<double>(s.proof_cache.evictions));
      bc_hits->Set(static_cast<double>(s.block_cache.hits));
      bc_misses->Set(static_cast<double>(s.block_cache.misses));
      bc_evictions->Set(static_cast<double>(s.block_cache.evictions));
      trace_ring->Set(static_cast<double>(s.trace_ring_occupancy));
      flight_seq->Set(static_cast<double>(s.flight_recorder_seq));
    });
    server->collector_registered_ = true;
  }
  // Hub before transport: the first request may park on it. The listener
  // holds a raw hub pointer, so ShutdownHub always detaches it first.
  server->hub_ = std::make_unique<EventHub>(service);
  service->SetSubscriptionListener(
      [hub = server->hub_.get()](uint64_t) { hub->OnAppend(); });
  auto http = HttpServer::Start(
      options.http, [srv = server.get()](const HttpRequest& req,
                                         Responder responder) {
        srv->Handle(req, std::move(responder));
      });
  if (!http.ok()) {
    server->ShutdownHub();
    server->RemoveCollector();
    return http.status();
  }
  server->http_ = http.TakeValue();
  return server;
}

SpServer::~SpServer() {
  ShutdownHub();
  RemoveCollector();
}

void SpServer::Stop() {
  ShutdownHub();
  http_->Stop();
  RemoveCollector();
}

Status SpServer::Drain(int timeout_seconds) {
  // Complete parked subscribers first — they hold live connections the
  // transport's drain would otherwise wait out.
  ShutdownHub();
  http_->Drain(timeout_seconds);
  RemoveCollector();
  return service_->Sync();
}

void SpServer::ShutdownHub() {
  if (hub_ == nullptr) return;
  service_->SetSubscriptionListener(nullptr);
  hub_->Shutdown();
}

void SpServer::RemoveCollector() {
  if (collector_registered_) {
    registry_->RemoveCollector(collector_id_);
    collector_registered_ = false;
  }
}

void SpServer::Handle(const HttpRequest& req, Responder responder) {
  if (req.path == "/events") {
    HandleEvents(req, std::move(responder));
    return;
  }
  responder.Send(HandleSync(req));
}

void SpServer::HandleEvents(const HttpRequest& req, Responder responder) {
  routes_.events->Inc();
  if (req.method != "GET") {
    responder.Send(TextResponse(405, "use GET\n"));
    return;
  }
  uint64_t id64 = 0;
  uint64_t cursor = 0;
  uint64_t max64 = 64;
  uint64_t wait_ms = 0;
  auto id_it = req.query.find("id");
  if (id_it == req.query.end() || !ParseDecimalU64(id_it->second, &id64) ||
      id64 > UINT32_MAX) {
    responder.Send(TextResponse(400, "id must be an unsigned integer\n"));
    return;
  }
  auto param = [&req](const char* key, uint64_t* out) {
    auto it = req.query.find(key);
    if (it == req.query.end()) return true;  // optional
    return ParseDecimalU64(it->second, out);
  };
  if (!param("cursor", &cursor) || !param("max", &max64) ||
      !param("wait_ms", &wait_ms)) {
    responder.Send(
        TextResponse(400, "cursor/max/wait_ms must be unsigned integers\n"));
    return;
  }
  const uint32_t id = static_cast<uint32_t>(id64);
  const size_t max_events = static_cast<size_t>(
      std::clamp<uint64_t>(max64, 1, kMaxWireEventsPerFrame));
  wait_ms = std::min(wait_ms, kMaxEventsWaitMs);
  auto accept = req.headers.find("accept");
  const bool sse = accept != req.headers.end() &&
                   accept->second.find("text/event-stream") != std::string::npos;

  // First look is inline: unknown ids 404 immediately and a ready batch
  // answers without ever touching the hub.
  auto batch = service_->EventsSince(id, cursor, max_events);
  if (!batch.ok()) {
    responder.Send(ErrorResponse(batch.status()));
    return;
  }
  if (sse) {
    if (!responder.BeginStream(200, "text/event-stream",
                               {{"Cache-Control", "no-cache"}})) {
      return;
    }
    responder.Write("retry: 1000\n\n");
    std::string out;
    for (const api::SubscriptionEvent& ev : batch.value().events) {
      out += SseRecord(ev);
    }
    if (!out.empty() && !responder.Write(out)) return;
    hub_->Park({std::move(responder), id, batch.value().next_cursor,
                max_events, /*sse=*/true, /*deadline_ns=*/0});
    return;
  }
  if (!batch.value().events.empty() || wait_ms == 0) {
    responder.Send(EventFrameResponse(batch.value()));
    return;
  }
  hub_->Park({std::move(responder), id, batch.value().next_cursor, max_events,
              /*sse=*/false,
              metrics::MonotonicNanos() + wait_ms * 1000000ull});
}

HttpResponse SpServer::HandleSync(const HttpRequest& req) const {
  if (req.path == "/healthz") {
    routes_.healthz->Inc();
    if (req.method != "GET") return TextResponse(405, "use GET\n");
    Status health = service_->Health();
    HttpResponse resp =
        health.ok() ? TextResponse(200, "ok\n")
                    : TextResponse(HttpStatusFor(health),
                                   "degraded: " + health.message() + "\n");
    resp.headers.emplace_back("X-Vchain-Engine",
                              api::EngineKindName(service_->engine_kind()));
    return resp;
  }

  if (req.path == "/metrics") {
    routes_.scrape->Inc();
    if (req.method != "GET") return TextResponse(405, "use GET\n");
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = registry_->WriteText();
    return resp;
  }

  if (req.path == "/headers") {
    routes_.headers->Inc();
    if (req.method != "GET") return TextResponse(405, "use GET\n");
    uint64_t tip = service_->NumBlocks();
    uint64_t from = 0;
    uint64_t to = tip == 0 ? 0 : tip - 1;
    auto param = [&req](const char* key, uint64_t* out) {
      auto it = req.query.find(key);
      if (it == req.query.end()) return true;  // optional
      return ParseDecimalU64(it->second, out);
    };
    if (!param("from", &from) || !param("to", &to)) {
      return TextResponse(400, "from/to must be unsigned integers\n");
    }
    // Cap the page; the client pages forward from its own height. Compare
    // via `to - from` (never overflows for to >= from) — `to - from + 1`
    // wraps to 0 for the full u64 range and would skip the clamp.
    uint64_t cap = std::max<size_t>(1, options_.max_headers_per_page);
    cap = std::min<uint64_t>(cap, kMaxWireHeadersPerPage);
    if (to >= from && to - from > cap - 1) to = from + cap - 1;
    auto headers = service_->Headers(from, to);
    if (!headers.ok()) return ErrorResponse(headers.status());
    HttpResponse resp;
    Bytes frame = EncodeHeaderPage(headers.value());
    resp.body.assign(frame.begin(), frame.end());
    resp.headers.emplace_back("X-Vchain-Tip", std::to_string(tip));
    return resp;
  }

  if (req.path == "/query") {
    routes_.query->Inc();
    if (req.method != "POST") return TextResponse(405, "use POST\n");
    return HandleQuery(req);
  }

  if (req.path == "/query_batch") {
    routes_.query_batch->Inc();
    if (req.method != "POST") return TextResponse(405, "use POST\n");
    auto queries = BatchRequestFromJson(req.body);
    if (!queries.ok()) return ErrorResponse(queries.status());
    auto results = service_->QueryBatch(queries.value());
    std::vector<WireBatchItem> items;
    items.reserve(results.size());
    for (auto& r : results) {
      WireBatchItem item;
      if (r.ok()) {
        item.response_bytes = std::move(r.value().response_bytes);
      } else {
        item.status = r.status();
      }
      items.push_back(std::move(item));
    }
    HttpResponse resp;
    Bytes frame = EncodeBatchResponse(items);
    resp.body.assign(frame.begin(), frame.end());
    return resp;
  }

  if (req.path == "/subscribe") {
    routes_.subscribe->Inc();
    if (req.method != "POST") return TextResponse(405, "use POST\n");
    auto query = SubscribeRequestFromJson(req.body);
    if (!query.ok()) return ErrorResponse(query.status());
    // Cursor read before Subscribe so it can only err low — the first
    // /events poll may see a block the subscription doesn't cover yet, and
    // EventsSince clamps to the true start.
    const uint64_t cursor = service_->NumBlocks();
    auto id = service_->Subscribe(query.value());
    if (!id.ok()) return ErrorResponse(id.status());
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = SubscribeResponseToJson({id.value(), cursor});
    return resp;
  }

  if (req.path == "/unsubscribe") {
    routes_.unsubscribe->Inc();
    if (req.method != "POST") return TextResponse(405, "use POST\n");
    auto id = UnsubscribeRequestFromJson(req.body);
    if (!id.ok()) return ErrorResponse(id.status());
    Status st = service_->Unsubscribe(id.value());
    if (!st.ok()) return ErrorResponse(st);
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = "{\"ok\":true}";
    return resp;
  }

  if (req.path == "/debug/traces" || req.path == "/debug/events" ||
      req.path == "/debug/config") {
    // Disabled = indistinguishable from an unknown route: the debug plane
    // must not change the public surface or leak its existence.
    if (!options_.debug_endpoints) {
      return TextResponse(404, "unknown endpoint\n");
    }
    routes_.debug->Inc();
    if (req.method != "GET") return TextResponse(405, "use GET\n");
    HttpResponse resp;
    resp.content_type = "application/json";
    if (req.path == "/debug/traces") {
      resp.body = service_->DebugTracesJson();
    } else if (req.path == "/debug/events") {
      resp.body = flight::FlightRecorder::Get().ToJson();
    } else {
      resp.body = service_->DebugConfigJson();
    }
    return resp;
  }

  return TextResponse(404, "unknown endpoint\n");
}

HttpResponse SpServer::HandleQuery(const HttpRequest& req) const {
  auto query = QueryFromJson(req.body);
  if (!query.ok()) return ErrorResponse(query.status());
  // Collect a trace only when something here reads it: the response header
  // or the slow-query log. Otherwise Service applies its own `tracing`
  // option. The body is the canonical response bytes verbatim either way.
  const bool want_header = TraceRequested(req);
  const bool want_trace = want_header || options_.slow_query_ms > 0;
  core::QueryTrace trace;
  auto result = service_->Query(query.value(), want_trace ? &trace : nullptr);
  if (options_.slow_query_ms > 0 && result.ok()) {
    const core::StageTimes st = trace.Stages();
    if (st.total_ns >= options_.slow_query_ms * 1000000ull) {
      logging::LogLine line = logging::Warn("slow_query");
      line.Kv("total_ms", static_cast<double>(st.total_ns) * 1e-6);
      for (size_t i = 0; i < core::kNumQueryStages; ++i) {
        line.Kv(std::string(core::kQueryStages[i]) + "_ms",
                static_cast<double>(st.stage_ns[i]) * 1e-6);
      }
      line.Kv("blocks_walked", trace.blocks_walked)
          .Kv("results", trace.results_matched)
          .Kv("cache_hits", trace.proof_cache_hits)
          .Kv("cache_misses", trace.proof_cache_misses)
          .Kv("spans", trace.spans->NumSpans());
    }
  }
  if (!result.ok()) return ErrorResponse(result.status());
  HttpResponse resp;
  resp.body.assign(result.value().response_bytes.begin(),
                   result.value().response_bytes.end());
  resp.headers.emplace_back("X-Vchain-Engine",
                            api::EngineKindName(service_->engine_kind()));
  resp.headers.emplace_back("X-Vchain-Vo-Bytes",
                            std::to_string(result.value().vo_bytes));
  resp.headers.emplace_back("X-Vchain-Results",
                            std::to_string(result.value().objects.size()));
  if (want_header) {
    resp.headers.emplace_back("X-Vchain-Trace", trace.ToJson());
  }
  return resp;
}

}  // namespace vchain::net
