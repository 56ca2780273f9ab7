// vchain::Service — the SP's front door (Fig 3's service provider as one
// object).
//
// The cryptographic core is engine-templated (accum/engine.h), which is the
// right shape for the protocol layers but the wrong shape for a deployment
// boundary: callers had to pick an accumulator at *compile time* and wire
// five templates together by hand. Service erases the engine behind a
// runtime `EngineKind` and owns the whole SP stack — block store (or
// in-memory chain), miner write-through, timestamp index, shared
// disjointness-proof cache, decoded-block cache, subscription manager — so
// a deployment is:
//
//   api::ServiceOptions opts;
//   opts.engine = api::EngineKind::kAcc2;          // runtime choice
//   opts.config.schema = {/*dims=*/1, /*bits=*/10};
//   opts.store_dir = "/var/lib/vchain";            // "" = in-memory
//   auto svc = api::Service::Open(std::move(opts)).TakeValue();
//
//   svc->Append(objects, timestamp);               // miner side
//   auto result = svc->Query(api::QueryBuilder()   // user-facing side
//                                .Window(ts, te)
//                                .Range(0, 200, 250)
//                                .AnyOf({"Benz", "BMW"})
//                                .Build());
//
// Thread safety. Queries are the hot path and run concurrently: any number
// of threads may call Query/QueryBatch/Stats/Verify simultaneously; every
// query gets its own single-threaded QueryProcessor over a shared
// mutex-striped proof cache and a shared decoded-block cache (per-query
// handles, store/concurrent_block_source.h). Append/Subscribe/Unsubscribe
// take the write side of one shared_mutex — an append waits for in-flight
// queries and vice versa, which matches the workload (one block per mining
// interval, queries continuous). Concurrent execution is bit-identical to
// serial: proofs are deterministic, so thread interleaving can never change
// a digest, proof, or VO byte.
//
// Every entry point validates its query (core::ValidateQuery) and returns
// the library-wide Status taxonomy: InvalidArgument for malformed queries
// or options, NotFound for unknown subscription ids, Corruption for
// undecodable response bytes, VerifyFailed from the user-side checks.
//
// The typed, templated layer stays public underneath (core/vchain.h) for
// callers that need compile-time engines, custom block sources, or the
// lazy subscription scheme; Service is a facade, not a replacement.

#ifndef VCHAIN_API_SERVICE_H_
#define VCHAIN_API_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "accum/acc1.h"  // ProverMode
#include "accum/keys.h"
#include "chain/light_client.h"
#include "common/lru.h"
#include "common/span.h"
#include "core/block.h"
#include "core/query.h"
#include "core/query_trace.h"
#include "store/block_store.h"

namespace vchain::api {

/// Accumulator engine, chosen at runtime. The mock engines are transparent
/// test doubles (fast, zero security — see accum/mock.h); acc1/acc2 are the
/// paper's two bilinear constructions (acc2 adds digest/proof aggregation).
enum class EngineKind : uint8_t {
  kMockAcc1 = 0,
  kMockAcc2 = 1,
  kAcc1 = 2,
  kAcc2 = 3,
};

const char* EngineKindName(EngineKind kind);

/// Inverse of EngineKindName ("acc2" -> kAcc2, etc.); false when `name`
/// names no engine. The wire layer and CLI flags parse engines with this.
bool EngineKindFromName(std::string_view name, EngineKind* out);

/// Everything a Service deployment fixes at startup.
struct ServiceOptions {
  EngineKind engine = EngineKind::kAcc2;

  /// Chain-wide consensus parameters (index mode, schema, skip list) plus
  /// the SP-local tuning knobs (num_prover_threads, proof_cache_capacity,
  /// block_cache_blocks) they carry.
  core::ChainConfig config;

  /// Trusted setup. Pass a shared oracle to make several services (or a
  /// service plus typed-layer code) byte-compatible; otherwise one is
  /// created from `oracle_seed` / `acc_params`.
  std::shared_ptr<accum::KeyOracle> oracle;
  uint64_t oracle_seed = 42;
  accum::AccParams acc_params;
  accum::ProverMode prover_mode = accum::ProverMode::kHonest;

  /// Durable store directory; empty = in-memory chain. A non-empty dir is
  /// opened (created if absent) and appends write through; reopening the
  /// same dir resumes the persisted chain without recomputing a digest.
  std::string store_dir;
  store::BlockStore::Options store_options;
  /// With a store: bound the miner's resident tail to this many blocks
  /// (0 = keep all decoded blocks in RAM; queries read through the store's
  /// block cache either way).
  size_t retain_window = 0;

  /// Stripes of the shared disjointness-proof cache (1 = one exact global
  /// LRU; more stripes cut contention between query threads).
  size_t proof_cache_shards = 16;

  /// Persist subscription state (registered queries + ids, drain cursor,
  /// pending lazy runs) as CRC-framed alternating slot files in `store_dir`,
  /// and resume from the latest valid slot on reopen — a restarted SP picks
  /// up its standing queries without replaying the chain. Requires a
  /// store_dir; ignored in in-memory mode. Blocks drained after the last
  /// checkpoint are re-matched on restart, so their notifications are
  /// re-delivered (at-least-once; subscribers dedup by (query_id, height)).
  bool sub_checkpoints = true;

  /// Also write a checkpoint every N drained blocks (0 = only at Sync and
  /// on Subscribe/Unsubscribe), bounding the at-least-once replay window.
  uint64_t sub_checkpoint_interval_blocks = 64;

  /// Bound on buffered subscription events retained for redelivery
  /// (EventsSince). A subscriber whose cursor falls behind this window gets
  /// its events regenerated by re-matching the mined blocks — same bytes,
  /// higher cost — so memory stays bounded no matter how slow a consumer
  /// is. 0 = unbounded log.
  size_t sub_event_log_capacity = 4096;

  // --- introspection plane (common/span.h, common/flight_recorder.h) -------

  /// Build a causal span tree for every Query/QueryBatch/Append and feed the
  /// stage histograms from its fold by span name. Off = the processor runs
  /// with no trace at all (the true zero-overhead baseline; only total
  /// latency is observed). Callers that pass their own QueryTrace are
  /// always traced, regardless of this switch. SpServer passes one only
  /// for X-Vchain-Trace requests or a slow-query threshold. Tracing never
  /// changes response bytes.
  bool tracing = true;

  /// Finished span trees retained for GET /debug/traces: FIFO capacity of
  /// the sampled set (the slowest handful is kept on top of this).
  size_t trace_ring_capacity = 64;
  /// Keep every Nth finished tree (0 = keep only the slowest set).
  uint64_t trace_sample_every = 16;

  /// Verification canary: every Nth successful query is replayed through
  /// Verify against a fresh light client on a background thread, feeding
  /// vchain_canary_{verified,failed,skipped}_total. 0 = canary off. A
  /// nonzero failed counter means the SP served an answer its own auditor
  /// could not verify — a page-worthy integrity signal.
  uint64_t canary_sample_every = 0;
  /// Audit-queue budget: sampled queries beyond this many pending audits
  /// are counted as skipped instead of queued (bounded memory, bounded
  /// audit lag).
  size_t canary_max_pending = 32;
};

/// An engine-erased query answer: the result set plus the canonical
/// serialized <R, VO> response — the bytes an SP would put on the wire, and
/// what Verify() checks against block headers.
struct QueryResult {
  std::vector<chain::Object> objects;
  Bytes response_bytes;
  /// Size of the VO alone (the paper's VO-size metric; response_bytes also
  /// carries the result objects).
  size_t vo_bytes = 0;
};

/// One per-(standing query, block) notification, logged at Append and read
/// per subscriber with EventsSince. `notification_bytes` is the canonical
/// serialized proof tree for VerifyNotification.
struct SubscriptionEvent {
  uint32_t query_id = 0;
  uint64_t height = 0;
  std::vector<chain::Object> objects;  ///< matches (often empty)
  Bytes notification_bytes;
};

/// One page of a subscriber's event stream (EventsSince): the events for
/// heights [cursor, next_cursor) in appended order, plus where to resume.
struct SubscriptionEventBatch {
  std::vector<SubscriptionEvent> events;
  /// Pass this as `cursor` on the next call; equals the cursor argument
  /// (clamped to the subscription's start) when nothing new is available.
  uint64_t next_cursor = 0;
  /// True when at least one event was regenerated by re-matching a block —
  /// the caller's cursor had fallen behind the bounded in-memory log. The
  /// bytes are identical to the originals; this is a diagnostics signal.
  bool redelivered = false;
};

/// A consistent snapshot of the service's observable state.
struct ServiceStats {
  EngineKind engine = EngineKind::kAcc2;
  bool durable = false;
  /// Read-only after a storage write fault; queries keep serving, Append
  /// returns Unavailable until the process restarts over a reopened store.
  bool degraded = false;
  uint64_t num_blocks = 0;
  uint64_t queries_served = 0;
  uint64_t subscriptions_active = 0;
  /// Events held in the bounded in-memory redelivery log
  /// (ServiceOptions::sub_event_log_capacity).
  uint64_t subscription_events_pending = 0;
  /// Sequence number of the latest durable subscription checkpoint
  /// (0 = none written or loaded; checkpointing off or in-memory mode).
  uint64_t sub_checkpoint_seq = 0;
  LruStats proof_cache;
  LruStats block_cache;  ///< zero in in-memory mode (no decoded-block cache)

  // Introspection plane (process-wide families read back from the metrics
  // registry — one source of truth; see ServiceOptions::canary_sample_every).
  uint64_t canary_verified = 0;
  uint64_t canary_failed = 0;  ///< nonzero = integrity alarm
  uint64_t canary_skipped = 0;
  /// Span trees currently retained for /debug/traces (this service's ring).
  uint64_t trace_ring_occupancy = 0;
  /// Events ever recorded by the process-wide flight recorder.
  uint64_t flight_recorder_seq = 0;
};

class IServiceBackend;

class Service {
 public:
  /// Build a service from `options`: create the engine (or adopt
  /// options.oracle), open/resume the store when `store_dir` is set, and
  /// wire the caches. InvalidArgument for inconsistent options; store-open
  /// failures (Corruption etc.) pass through.
  static Result<std::unique_ptr<Service>> Open(ServiceOptions options);

  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- miner side (exclusive; serialized against queries) -----------------

  /// Mine the next block from `objects` at `timestamp` (monotonic), write
  /// it through to the store when durable, and run it past every standing
  /// subscription (events are logged for EventsSince).
  Status Append(std::vector<chain::Object> objects, uint64_t timestamp);

  /// Durable commit point: fsync the store and advance its commit
  /// watermark. No-op in in-memory mode.
  Status Sync();

  /// OK while the service accepts writes; Unavailable (with the original
  /// fault in the message) once a storage write fault has forced read-only
  /// degraded mode. Queries are unaffected either way — this is what a
  /// load balancer or /healthz endpoint should poll.
  Status Health() const;

  // --- query side (thread-safe, concurrent) -------------------------------

  /// Answer one Boolean range query: <R, VO> as a QueryResult.
  /// InvalidArgument for a structurally invalid query.
  ///
  /// `trace` (optional) receives the query's span tree and work counts
  /// (core/query_trace.h; QueryTrace::Stages folds the per-stage times).
  /// With ServiceOptions::tracing on, every query is stage-timed either way
  /// — the tree feeds the vchain_service_query_stage_seconds histograms —
  /// so passing a trace costs nothing extra; with it off, only a passed
  /// trace is timed. Tracing never changes the response bytes.
  Result<QueryResult> Query(const core::Query& q,
                            core::QueryTrace* trace = nullptr);

  /// Answer a batch concurrently on the shared worker pool (results in
  /// input order, each independently ok or failed). Byte-identical to
  /// issuing the same queries serially.
  std::vector<Result<QueryResult>> QueryBatch(
      const std::vector<core::Query>& queries);

  // --- user-side helpers ---------------------------------------------------

  /// Feed the chain's sealed headers to a light client (Fig 3 header sync).
  Status SyncLightClient(chain::LightClient* client) const;

  /// One page of sealed headers, heights [from, to] inclusive (both clamped
  /// to the tip; empty when `from` is past it). This is the light-client
  /// sync primitive a remote transport exposes (GET /headers): the caller
  /// pages forward and feeds each header to its own LightClient, which
  /// re-validates linkage and consensus — nothing here is trusted.
  Result<std::vector<chain::BlockHeader>> Headers(uint64_t from,
                                                  uint64_t to) const;

  /// Decode canonical response bytes (the on-the-wire form) back into a
  /// QueryResult — result objects and VO size re-derived from the bytes.
  /// Corruption when the bytes don't decode exactly. A remote client pairs
  /// this with Verify: decode what arrived, then check it against headers.
  Result<QueryResult> DecodeResult(const Bytes& response_bytes) const;

  /// Replay `result` against headers only: soundness + completeness
  /// (core/verifier.h). VerifyFailed = the response lies; Corruption = the
  /// bytes don't decode.
  Status Verify(const core::Query& q, const QueryResult& result,
                const chain::LightClient& client) const;

  /// Verify one buffered subscription event against headers only.
  Status VerifyNotification(const core::Query& q, const SubscriptionEvent& ev,
                            const chain::LightClient& client) const;

  // --- subscriptions -------------------------------------------------------

  /// Register a standing query; events cover blocks appended afterwards.
  Result<uint32_t> Subscribe(const core::Query& q);
  Status Unsubscribe(uint32_t id);

  /// Per-subscriber event cursor — the wire-facing read path. Returns up to
  /// `max_events` events for subscription `id` covering block heights
  /// [cursor, next_cursor), oldest first. Cursors are block heights: a new
  /// subscriber starts at the height returned by the transport at subscribe
  /// time; after each batch it resumes from `next_cursor`. Events still in
  /// the bounded in-memory log are served as-is; older ones are regenerated
  /// by re-matching the mined block (bit-identical bytes, `redelivered`
  /// set). NotFound for an unknown id. Delivery is at-least-once; consumers
  /// dedup by (query_id, height).
  Result<SubscriptionEventBatch> EventsSince(uint32_t id, uint64_t cursor,
                                             size_t max_events = 64);

  /// Decode canonical notification bytes (the on-the-wire form) back into a
  /// SubscriptionEvent — query_id, height and matched objects re-derived
  /// from the bytes. Corruption when they don't decode exactly. A remote
  /// subscriber pairs this with VerifyNotification, exactly like
  /// DecodeResult pairs with Verify.
  Result<SubscriptionEvent> DecodeNotification(
      const Bytes& notification_bytes) const;

  /// Register one process-wide listener called after every successful
  /// Append with the new chain tip. The transport uses this to wake parked
  /// long-poll/SSE subscribers the moment events exist, instead of polling.
  /// Called on the appending thread with no Service locks held; keep it
  /// cheap (flag + notify). Pass nullptr to clear.
  void SetSubscriptionListener(std::function<void(uint64_t tip)> listener);

  // --- introspection -------------------------------------------------------

  ServiceStats Stats() const;
  uint64_t NumBlocks() const;
  EngineKind engine_kind() const;
  const core::ChainConfig& config() const;
  const ServiceOptions& options() const;

  /// Block until every canary audit enqueued so far has run (tests and
  /// graceful shutdown). No-op when the canary is off.
  void DrainCanary();

  /// The retained span trees (sampled + slowest) as one JSON document —
  /// what GET /debug/traces serves.
  std::string DebugTracesJson() const;

  /// Effective configuration with per-field provenance ("default" | "set",
  /// against a default-constructed ServiceOptions/ChainConfig) — what
  /// GET /debug/config serves.
  std::string DebugConfigJson() const;

 private:
  explicit Service(std::unique_ptr<IServiceBackend> backend);

  struct CanaryItem {
    core::Query query;
    Bytes response_bytes;
    uint64_t tip = 0;  ///< chain height when the answer was produced
  };

  Result<QueryResult> QueryInternal(const core::Query& q,
                                    core::QueryTrace* caller_trace);
  void MaybeEnqueueCanary(const core::Query& q, const QueryResult& result);
  void CanaryLoop();
  void RunCanaryItem(const CanaryItem& item);
  void NotifySubscriptionListener();

  std::unique_ptr<IServiceBackend> backend_;

  /// Retention ring behind /debug/traces; always present so opted-in traces
  /// are retained even with ServiceOptions::tracing == false.
  std::unique_ptr<trace::TraceRing> ring_;

  std::atomic<uint64_t> canary_tick_{0};
  mutable std::mutex canary_mu_;
  std::condition_variable canary_cv_;
  std::deque<CanaryItem> canary_queue_;
  bool canary_stop_ = false;
  bool canary_busy_ = false;
  std::thread canary_thread_;  ///< joinable only when canary_sample_every > 0

  mutable std::mutex listener_mu_;
  std::function<void(uint64_t)> sub_listener_;  ///< SetSubscriptionListener
};

}  // namespace vchain::api

namespace vchain {
// The service layer is the intended first contact with the library; alias
// it into the top-level namespace (vchain::Service, vchain::QueryBuilder in
// api/query_builder.h).
using api::EngineKind;
using api::QueryResult;
using api::Service;
using api::ServiceOptions;
using api::ServiceStats;
using api::SubscriptionEvent;
using api::SubscriptionEventBatch;
}  // namespace vchain

#endif  // VCHAIN_API_SERVICE_H_
