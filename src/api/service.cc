// api::Service — engine dispatch and the erased forwarding shell.
//
// The only engine-kind switch in the library lives here: Open instantiates
// ServiceBackend<Engine> for the requested EngineKind, and everything after
// that is virtual calls through IServiceBackend. QueryBatch is implemented
// at this layer (it is pure orchestration — fan the per-query calls out on
// the process-wide ThreadPool and keep input order) so backends stay a
// single-query interface.

#include "api/service.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "accum/acc2.h"
#include "accum/mock.h"
#include "api/backend_impl.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace vchain::api {

namespace {

/// One registration, process-wide: total query latency, one per-stage
/// histogram per core::kQueryStages entry (the paper's cost breakdown), and
/// the served/error counters. Pointers are stable, so grab them once.
struct QueryMetrics {
  metrics::Histogram* query_seconds;
  std::array<metrics::Histogram*, core::kNumQueryStages> stage_seconds;
  metrics::Counter* queries_total;
  metrics::Counter* query_errors_total;

  static const QueryMetrics& Get() {
    static const QueryMetrics m = [] {
      metrics::Registry& r = metrics::Registry::Default();
      QueryMetrics out;
      out.query_seconds = r.GetLatencyHistogram(
          "vchain_service_query_seconds",
          "End-to-end server-side query latency, serialization included");
      for (size_t i = 0; i < core::kNumQueryStages; ++i) {
        out.stage_seconds[i] = r.GetLatencyHistogram(
            "vchain_service_query_stage_seconds",
            "Per-stage server-side query latency (see core/query_trace.h)",
            {{"stage", core::kQueryStages[i]}});
      }
      out.queries_total = r.GetCounter("vchain_service_queries_total",
                                       "Queries answered successfully");
      out.query_errors_total = r.GetCounter(
          "vchain_service_query_errors_total",
          "Queries rejected or failed (validation errors included)");
      return out;
    }();
    return m;
  }
};

/// The canary's own tier: audit verdict counters plus replay latency.
/// Registered once per process (families are visible at 0 from startup so a
/// flat vchain_canary_failed_total of 0 is an observable "all clear").
struct CanaryMetrics {
  metrics::Counter* verified_total;
  metrics::Counter* failed_total;
  metrics::Counter* skipped_total;
  metrics::Histogram* verify_seconds;

  static const CanaryMetrics& Get() {
    static const CanaryMetrics m = [] {
      metrics::Registry& r = metrics::Registry::Default();
      CanaryMetrics out;
      out.verified_total = r.GetCounter(
          "vchain_canary_verified_total",
          "Sampled answers the background auditor re-verified successfully");
      out.failed_total = r.GetCounter(
          "vchain_canary_failed_total",
          "Sampled answers that FAILED re-verification (integrity alarm)");
      out.skipped_total = r.GetCounter(
          "vchain_canary_skipped_total",
          "Sampled answers dropped because the audit queue was full");
      out.verify_seconds = r.GetLatencyHistogram(
          "vchain_canary_verify_seconds",
          "Canary replay latency (light-client sync + Verify)");
      return out;
    }();
    return m;
  }
};

void ObserveQueryTrace(const core::QueryTrace& t, bool ok) {
  const QueryMetrics& m = QueryMetrics::Get();
  if (!ok) {
    m.query_errors_total->Inc();
    return;
  }
  m.queries_total->Inc();
  const core::StageTimes st = t.Stages();
  m.query_seconds->Observe(static_cast<double>(st.total_ns) * 1e-9);
  for (size_t i = 0; i < core::kNumQueryStages; ++i) {
    m.stage_seconds[i]->Observe(static_cast<double>(st.stage_ns[i]) * 1e-9);
  }
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMockAcc1: return "mock-acc1";
    case EngineKind::kMockAcc2: return "mock-acc2";
    case EngineKind::kAcc1: return "acc1";
    case EngineKind::kAcc2: return "acc2";
  }
  return "unknown";
}

bool EngineKindFromName(std::string_view name, EngineKind* out) {
  for (EngineKind kind : {EngineKind::kMockAcc1, EngineKind::kMockAcc2,
                          EngineKind::kAcc1, EngineKind::kAcc2}) {
    if (name == EngineKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

Result<std::unique_ptr<Service>> Service::Open(ServiceOptions options) {
  if (options.proof_cache_shards == 0) options.proof_cache_shards = 1;
  std::shared_ptr<accum::KeyOracle> oracle =
      options.oracle != nullptr
          ? options.oracle
          : accum::KeyOracle::Create(options.oracle_seed, options.acc_params);
  options.oracle = oracle;
  // Read out of `options` before the moves below — argument evaluation
  // order within each Create call is unspecified.
  const accum::ProverMode prover_mode = options.prover_mode;

  Result<std::unique_ptr<IServiceBackend>> backend =
      Status::InvalidArgument("unknown engine kind");
  switch (options.engine) {
    case EngineKind::kMockAcc1:
      backend = ServiceBackend<accum::MockAcc1Engine>::Create(
          std::move(options), accum::MockAcc1Engine(oracle));
      break;
    case EngineKind::kMockAcc2:
      backend = ServiceBackend<accum::MockAcc2Engine>::Create(
          std::move(options), accum::MockAcc2Engine(oracle));
      break;
    case EngineKind::kAcc1:
      backend = ServiceBackend<accum::Acc1Engine>::Create(
          std::move(options), accum::Acc1Engine(oracle, prover_mode));
      break;
    case EngineKind::kAcc2:
      backend = ServiceBackend<accum::Acc2Engine>::Create(
          std::move(options), accum::Acc2Engine(oracle, prover_mode));
      break;
  }
  if (!backend.ok()) return backend.status();
  return std::unique_ptr<Service>(new Service(backend.TakeValue()));
}

Service::Service(std::unique_ptr<IServiceBackend> backend)
    : backend_(std::move(backend)) {
  const ServiceOptions& opts = backend_->options();
  ring_ = std::make_unique<trace::TraceRing>(opts.trace_ring_capacity,
                                             opts.trace_sample_every);
  // Register the canary families up front (visible at 0) even when the
  // canary is off, so dashboards see an explicit "all clear", not absence.
  (void)CanaryMetrics::Get();
  if (opts.canary_sample_every > 0) {
    canary_thread_ = std::thread([this] { CanaryLoop(); });
  }
}

Service::~Service() {
  if (canary_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(canary_mu_);
      canary_stop_ = true;
    }
    canary_cv_.notify_all();
    canary_thread_.join();  // the loop drains the queue before exiting
  }
}

Status Service::Append(std::vector<chain::Object> objects,
                       uint64_t timestamp) {
  static metrics::Histogram* append_seconds =
      metrics::Registry::Default().GetLatencyHistogram(
          "vchain_service_append_seconds",
          "Mine-and-write-through latency per appended block");
  metrics::ScopedTimer timer(append_seconds);
  if (!backend_->options().tracing) {
    Status st = backend_->Append(std::move(objects), timestamp);
    if (st.ok()) NotifySubscriptionListener();
    return st;
  }
  // The append path has no trace parameter (miners don't opt in), so the
  // tree is ambient: the backend attaches "mine" and "sub_dispatch" spans
  // through trace::CurrentSpan().
  auto tree = std::make_shared<trace::SpanTree>("append");
  Status st;
  {
    trace::AmbientScope scope(tree.get(), trace::kRootSpan);
    st = backend_->Append(std::move(objects), timestamp);
  }
  tree->EndRoot();
  ring_->Offer(std::move(tree));
  if (st.ok()) NotifySubscriptionListener();
  return st;
}

Status Service::Sync() { return backend_->Sync(); }

Status Service::Health() const { return backend_->Health(); }

Result<QueryResult> Service::QueryInternal(const core::Query& q,
                                           core::QueryTrace* caller_trace) {
  if (caller_trace == nullptr && !backend_->options().tracing) {
    // True zero-overhead baseline: the processor never sees a trace. Only
    // total latency and the served/error counters are observed; the stage
    // histograms go unfed (they are folded from spans and there are none).
    // bench_query_stages measures traced-vs-this to bound overhead.
    const QueryMetrics& m = QueryMetrics::Get();
    uint64_t t0 = metrics::MonotonicNanos();
    auto out = backend_->Query(q, nullptr);
    if (out.ok()) {
      m.queries_total->Inc();
      m.query_seconds->Observe(
          static_cast<double>(metrics::MonotonicNanos() - t0) * 1e-9);
      MaybeEnqueueCanary(q, out.value());
    } else {
      m.query_errors_total->Inc();
    }
    return out;
  }
  // Traced path: one span tree per call, rooted here so the total is the
  // root span's interval — stage histograms, slow-query logs, the trace
  // header, and /debug/traces all fold from this one tree.
  core::QueryTrace local;
  core::QueryTrace* t = caller_trace != nullptr ? caller_trace : &local;
  trace::SpanTree* tree = t->EnsureSpans("query");
  auto out = backend_->Query(q, t);
  tree->EndRoot();
  ObserveQueryTrace(*t, out.ok());
  ring_->Offer(t->spans);
  if (out.ok()) MaybeEnqueueCanary(q, out.value());
  return out;
}

Result<QueryResult> Service::Query(const core::Query& q,
                                   core::QueryTrace* trace) {
  return QueryInternal(q, trace);
}

std::vector<Result<QueryResult>> Service::QueryBatch(
    const std::vector<core::Query>& queries) {
  static metrics::Histogram* batch_seconds =
      metrics::Registry::Default().GetLatencyHistogram(
          "vchain_service_batch_seconds",
          "Whole-batch latency of QueryBatch calls");
  metrics::ScopedTimer timer(batch_seconds);
  std::vector<Result<QueryResult>> out(
      queries.size(), Result<QueryResult>(Status::Internal("not executed")));
  ThreadPool& pool = ThreadPool::Shared();
  pool.ParallelFor(queries.size(), pool.NumWorkers() + 1, [&](size_t i) {
    out[i] = QueryInternal(queries[i], nullptr);
  });
  return out;
}

void Service::MaybeEnqueueCanary(const core::Query& q,
                                 const QueryResult& result) {
  if (!canary_thread_.joinable()) return;
  const uint64_t n = canary_tick_.fetch_add(1, std::memory_order_relaxed);
  if (n % backend_->options().canary_sample_every != 0) return;
  CanaryItem item;
  item.query = q;
  item.response_bytes = result.response_bytes;
  item.tip = backend_->NumBlocks();
  {
    std::lock_guard<std::mutex> lock(canary_mu_);
    if (canary_queue_.size() >= backend_->options().canary_max_pending) {
      CanaryMetrics::Get().skipped_total->Inc();
      return;
    }
    canary_queue_.push_back(std::move(item));
  }
  canary_cv_.notify_one();
}

void Service::CanaryLoop() {
  for (;;) {
    CanaryItem item;
    {
      std::unique_lock<std::mutex> lock(canary_mu_);
      canary_cv_.wait(lock, [this] {
        return canary_stop_ || !canary_queue_.empty();
      });
      if (canary_queue_.empty()) {
        if (canary_stop_) return;  // stopped with nothing left to audit
        continue;
      }
      item = std::move(canary_queue_.front());
      canary_queue_.pop_front();
      canary_busy_ = true;
    }
    RunCanaryItem(item);
    {
      std::lock_guard<std::mutex> lock(canary_mu_);
      canary_busy_ = false;
    }
    canary_cv_.notify_all();  // wake DrainCanary waiters
  }
}

void Service::RunCanaryItem(const CanaryItem& item) {
  const CanaryMetrics& m = CanaryMetrics::Get();
  metrics::ScopedTimer timer(m.verify_seconds);
  // Replay exactly what an honest light client would do, against the chain
  // as of when the answer was produced: sync headers [0, tip) into a fresh
  // client (re-validating linkage + consensus), then run the full
  // soundness/completeness check. Bounding the sync at item.tip keeps
  // blocks appended after the answer from reading as "missing results".
  Status st = Status::OK();
  chain::LightClient client(backend_->options().config.pow);
  if (item.tip > 0) {
    auto headers = backend_->Headers(0, item.tip - 1);
    if (!headers.ok()) {
      st = headers.status();
    } else {
      for (const chain::BlockHeader& h : headers.value()) {
        st = client.SyncHeader(h);
        if (!st.ok()) break;
      }
    }
  }
  if (st.ok()) {
    QueryResult replayed;
    replayed.response_bytes = item.response_bytes;
    st = backend_->Verify(item.query, replayed, client);
  }
  if (st.ok()) {
    m.verified_total->Inc();
  } else {
    m.failed_total->Inc();
    flight::FlightRecorder::Get().Record("canary", "verify_failed", item.tip);
    logging::Error("canary_verify_failed")
        .Kv("tip", item.tip)
        .Kv("reason", st.ToString());
  }
}

void Service::DrainCanary() {
  if (!canary_thread_.joinable()) return;
  std::unique_lock<std::mutex> lock(canary_mu_);
  canary_cv_.wait(lock, [this] {
    return canary_queue_.empty() && !canary_busy_;
  });
}

Status Service::SyncLightClient(chain::LightClient* client) const {
  return backend_->SyncLightClient(client);
}

Result<std::vector<chain::BlockHeader>> Service::Headers(uint64_t from,
                                                         uint64_t to) const {
  return backend_->Headers(from, to);
}

Result<QueryResult> Service::DecodeResult(const Bytes& response_bytes) const {
  return backend_->DecodeResult(response_bytes);
}

Status Service::Verify(const core::Query& q, const QueryResult& result,
                       const chain::LightClient& client) const {
  return backend_->Verify(q, result, client);
}

Status Service::VerifyNotification(const core::Query& q,
                                   const SubscriptionEvent& ev,
                                   const chain::LightClient& client) const {
  return backend_->VerifyNotification(q, ev, client);
}

Result<uint32_t> Service::Subscribe(const core::Query& q) {
  return backend_->Subscribe(q);
}

Status Service::Unsubscribe(uint32_t id) { return backend_->Unsubscribe(id); }

Result<SubscriptionEventBatch> Service::EventsSince(uint32_t id,
                                                    uint64_t cursor,
                                                    size_t max_events) {
  return backend_->EventsSince(id, cursor, max_events);
}

Result<SubscriptionEvent> Service::DecodeNotification(
    const Bytes& notification_bytes) const {
  return backend_->DecodeNotification(notification_bytes);
}

void Service::SetSubscriptionListener(
    std::function<void(uint64_t tip)> listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  sub_listener_ = std::move(listener);
}

void Service::NotifySubscriptionListener() {
  std::function<void(uint64_t)> listener;
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    listener = sub_listener_;
  }
  if (listener) listener(backend_->NumBlocks());
}

ServiceStats Service::Stats() const {
  ServiceStats s = backend_->Stats();
  // One source of truth: the canary totals come back out of the registry
  // (the counters the auditor itself bumps), not a parallel tally.
  const CanaryMetrics& m = CanaryMetrics::Get();
  s.canary_verified = static_cast<uint64_t>(m.verified_total->Value());
  s.canary_failed = static_cast<uint64_t>(m.failed_total->Value());
  s.canary_skipped = static_cast<uint64_t>(m.skipped_total->Value());
  s.trace_ring_occupancy = ring_->Occupancy();
  s.flight_recorder_seq = flight::FlightRecorder::Get().NextSeq();
  return s;
}

uint64_t Service::NumBlocks() const { return backend_->NumBlocks(); }

EngineKind Service::engine_kind() const { return backend_->options().engine; }

const core::ChainConfig& Service::config() const {
  return backend_->options().config;
}

const ServiceOptions& Service::options() const { return backend_->options(); }

std::string Service::DebugTracesJson() const {
  return ring_->ToJson(core::QueryTrace::kMaxJsonSpans);
}

namespace {

/// Append `"key":{"value":<value>,"provenance":"default|set"}` — value
/// emission differs per type, provenance is always a comparison against the
/// default-constructed options.
void AppendField(std::string* out, const char* key, uint64_t value,
                 uint64_t def, bool* first) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\":{\"value\":%" PRIu64 ",\"provenance\":\"%s\"}",
                *first ? "" : ",", key, value,
                value == def ? "default" : "set");
  *first = false;
  out->append(buf);
}

void AppendBoolField(std::string* out, const char* key, bool value, bool def,
                     bool* first) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\":{\"value\":%s,\"provenance\":\"%s\"}",
                *first ? "" : ",", key, value ? "true" : "false",
                value == def ? "default" : "set");
  *first = false;
  out->append(buf);
}

void AppendStringField(std::string* out, const char* key,
                       const std::string& value, const std::string& def,
                       bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->append("\"");
  out->append(key);
  out->append("\":{\"value\":\"");
  for (char c : value) {  // minimal JSON string escaping
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out->push_back(c);
    }
  }
  out->append("\",\"provenance\":");
  out->append(value == def ? "\"default\"}" : "\"set\"}");
}

const char* ProverModeName(accum::ProverMode mode) {
  return mode == accum::ProverMode::kHonest ? "honest" : "trusted-fast";
}

}  // namespace

std::string Service::DebugConfigJson() const {
  const ServiceOptions& o = backend_->options();
  const ServiceOptions defaults;
  const core::ChainConfig& c = o.config;
  const core::ChainConfig cdef;
  std::string out = "{\"service\":{";
  bool first = true;
  AppendStringField(&out, "engine", EngineKindName(o.engine),
                    EngineKindName(defaults.engine), &first);
  AppendStringField(&out, "prover_mode", ProverModeName(o.prover_mode),
                    ProverModeName(defaults.prover_mode), &first);
  AppendField(&out, "oracle_seed", o.oracle_seed, defaults.oracle_seed,
              &first);
  AppendStringField(&out, "store_dir", o.store_dir, defaults.store_dir,
                    &first);
  AppendField(&out, "retain_window", o.retain_window, defaults.retain_window,
              &first);
  AppendField(&out, "proof_cache_shards", o.proof_cache_shards,
              defaults.proof_cache_shards, &first);
  AppendBoolField(&out, "sub_checkpoints", o.sub_checkpoints,
                  defaults.sub_checkpoints, &first);
  AppendField(&out, "sub_checkpoint_interval_blocks",
              o.sub_checkpoint_interval_blocks,
              defaults.sub_checkpoint_interval_blocks, &first);
  AppendField(&out, "sub_event_log_capacity", o.sub_event_log_capacity,
              defaults.sub_event_log_capacity, &first);
  AppendBoolField(&out, "tracing", o.tracing, defaults.tracing, &first);
  AppendField(&out, "trace_ring_capacity", o.trace_ring_capacity,
              defaults.trace_ring_capacity, &first);
  AppendField(&out, "trace_sample_every", o.trace_sample_every,
              defaults.trace_sample_every, &first);
  AppendField(&out, "canary_sample_every", o.canary_sample_every,
              defaults.canary_sample_every, &first);
  AppendField(&out, "canary_max_pending", o.canary_max_pending,
              defaults.canary_max_pending, &first);
  out.append("},\"chain\":{");
  first = true;
  AppendStringField(&out, "mode", core::IndexModeName(c.mode),
                    core::IndexModeName(cdef.mode), &first);
  AppendField(&out, "schema_dims", c.schema.dims, cdef.schema.dims, &first);
  AppendField(&out, "schema_bits", c.schema.bits, cdef.schema.bits, &first);
  AppendField(&out, "skiplist_size", c.skiplist_size, cdef.skiplist_size,
              &first);
  AppendField(&out, "pow_difficulty_bits", c.pow.difficulty_bits,
              cdef.pow.difficulty_bits, &first);
  AppendField(&out, "num_prover_threads", c.num_prover_threads,
              cdef.num_prover_threads, &first);
  AppendField(&out, "proof_cache_capacity", c.proof_cache_capacity,
              cdef.proof_cache_capacity, &first);
  AppendField(&out, "block_cache_blocks", c.block_cache_blocks,
              cdef.block_cache_blocks, &first);
  out.append("}}");
  return out;
}

}  // namespace vchain::api
