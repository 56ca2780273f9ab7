// ServiceBackend<Engine>: the typed SP stack behind api::Service.
//
// Owns, per service: the engine, the chain builder (miner write-through +
// timestamp index), the optional durable store with its shared decoded-block
// cache, the shared mutex-striped proof cache, and the subscription manager.
//
// Locking model (state_mu_, a shared_mutex):
//   * Query takes a *shared* lock: any number run concurrently. Each query
//     builds a throwaway single-threaded QueryProcessor (two pointers and a
//     scratch vector) over its own block-source view; the expensive state —
//     proof cache, decoded-block cache — is shared and internally
//     synchronized. The block-source view is frozen at the admission-time
//     tip, so a later append can never shift a window mid-walk.
//   * Append / Subscribe / Unsubscribe / EventsSince / Sync take the
//     *exclusive* lock: they mutate the chain vectors, the timestamp index,
//     the store, or the event log that queries and stats read.
//
// Determinism: everything a query emits is a pure function of (chain,
// query, engine); caches only decide what gets recomputed. Concurrent runs
// are therefore byte-identical to serial runs — enforced by
// tests/api/service_test.cc's multi-threaded stress against a serial
// QueryProcessor baseline, for all four engines.

#ifndef VCHAIN_API_BACKEND_IMPL_H_
#define VCHAIN_API_BACKEND_IMPL_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/backend.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/span.h"
#include "core/chain_builder.h"
#include "core/processor.h"
#include "core/proof_cache.h"
#include "core/verifier.h"
#include "store/block_source.h"
#include "store/concurrent_block_source.h"
#include "sub/match/checkpoint.h"
#include "sub/match/metrics.h"
#include "sub/sub_serde.h"
#include "sub/sub_verifier.h"
#include "sub/subscription.h"

namespace vchain::api {

template <typename Engine>
class ServiceBackend final : public IServiceBackend {
 public:
  static Result<std::unique_ptr<IServiceBackend>> Create(ServiceOptions options,
                                                         Engine engine) {
    std::unique_ptr<ServiceBackend> b(
        new ServiceBackend(std::move(options), std::move(engine)));
    const ServiceOptions& opts = b->options_;

    if (opts.store_dir.empty()) {
      if (opts.retain_window != 0) {
        return Status::InvalidArgument(
            "retain_window requires a store_dir (pruned blocks must stay "
            "reachable on disk)");
      }
      b->builder_ = std::make_unique<core::ChainBuilder<Engine>>(b->engine_,
                                                                 opts.config);
    } else {
      auto store = store::BlockStore::Open(opts.store_dir, opts.store_options);
      if (!store.ok()) return store.status();
      b->store_ = store.TakeValue();
      if (b->store_->NumBlocks() > 0) {
        // Resume the persisted chain: headers + timestamp index from the
        // store, only the skip-construction tail decoded back into RAM.
        auto resumed = core::ChainBuilder<Engine>::ResumeFromStore(
            b->engine_, opts.config, b->store_.get());
        if (!resumed.ok()) return resumed.status();
        b->builder_ =
            std::make_unique<core::ChainBuilder<Engine>>(resumed.TakeValue());
      } else {
        b->builder_ = std::make_unique<core::ChainBuilder<Engine>>(
            b->engine_, opts.config);
        VCHAIN_RETURN_IF_ERROR(b->builder_->AttachStore(b->store_.get()));
      }
      if (opts.retain_window != 0) {
        VCHAIN_RETURN_IF_ERROR(b->builder_->SetRetainWindow(opts.retain_window));
      }
      b->disk_source_ =
          std::make_unique<store::ConcurrentStoreBlockSource<Engine>>(
              b->engine_, b->store_.get(), opts.config.block_cache_blocks);
    }
    b->sub_next_height_ = b->builder_->NumBlocks();
    if (b->store_ != nullptr && opts.sub_checkpoints) {
      store::Env* env = opts.store_options.env != nullptr
                            ? opts.store_options.env
                            : store::Env::Default();
      b->ckpt_ = std::make_unique<sub::CheckpointSlots>(env, opts.store_dir);
      VCHAIN_RETURN_IF_ERROR(b->ckpt_->Open());
      if (b->ckpt_->HasCheckpoint()) {
        VCHAIN_RETURN_IF_ERROR(b->RestoreCheckpoint());
      }
    }
    return std::unique_ptr<IServiceBackend>(std::move(b));
  }

  // --- miner side ----------------------------------------------------------

  Status Append(std::vector<chain::Object> objects,
                uint64_t timestamp) override {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (degraded_) {
      return Status::Unavailable("service is read-only: " + degraded_reason_);
    }
    // The service shell installs an ambient "append" tree when tracing;
    // mining and the subscription drain hang their spans off it.
    const trace::AmbientSpan amb = trace::CurrentSpan();
    uint32_t mine_span =
        amb.tree != nullptr ? amb.tree->Begin("mine", amb.parent) : 0;
    auto stats = builder_->AppendBlock(std::move(objects), timestamp);
    if (amb.tree != nullptr) amb.tree->End(mine_span);
    if (!stats.ok()) {
      // AppendBlock writes through to the store *before* touching the
      // in-memory chain, so on failure memory still mirrors the durable
      // prefix — queries stay correct. A validation error (InvalidArgument)
      // is the caller's problem; anything else is a storage fault and
      // flips the service read-only until a restart reopens the store
      // through its recovery path.
      if (!stats.status().IsInvalidArgument()) {
        EnterDegradedLocked(stats.status());
      }
      return stats.status();
    }
    DrainSubscriptionsLocked();
    return Status::OK();
  }

  Status Sync() override {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (store_ == nullptr) return Status::OK();
    // Still attempted in degraded mode: fsyncing the clean prefix written
    // before the fault can only help.
    Status st = store_->Sync();
    if (!st.ok() && !degraded_) EnterDegradedLocked(st);
    if (!st.ok()) return st;
    // Sync is the hard commit point, so a checkpoint failure surfaces here
    // (unlike the best-effort periodic writes).
    return WriteCheckpointLocked();
  }

  Status Health() const override {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    if (degraded_) {
      return Status::Unavailable("degraded (read-only): " + degraded_reason_);
    }
    return Status::OK();
  }

  // --- query side ----------------------------------------------------------

  Result<QueryResult> Query(const core::Query& q,
                            core::QueryTrace* trace) override {
    VCHAIN_RETURN_IF_ERROR(core::ValidateQuery(q, options_.config.schema));
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    if (disk_source_ != nullptr) {
      auto handle = disk_source_->MakeHandle(store_->NumBlocks());
      core::QueryProcessor<Engine> sp(engine_, options_.config, &handle,
                                      &builder_->timestamp_index(),
                                      &proof_cache_);
      return Finish(sp.TimeWindowQuery(q, trace), trace);
    }
    store::VectorBlockSource<Engine> source(&builder_->blocks());
    core::QueryProcessor<Engine> sp(engine_, options_.config, &source,
                                    &builder_->timestamp_index(),
                                    &proof_cache_);
    return Finish(sp.TimeWindowQuery(q, trace), trace);
  }

  // --- user-side helpers ---------------------------------------------------

  Status SyncLightClient(chain::LightClient* client) const override {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    return builder_->SyncLightClient(client);
  }

  Result<std::vector<chain::BlockHeader>> Headers(uint64_t from,
                                                  uint64_t to) const override {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    uint64_t tip = builder_->NumBlocks();
    std::vector<chain::BlockHeader> out;
    if (tip == 0 || from >= tip) return out;
    if (to >= tip) to = tip - 1;
    for (uint64_t h = from; h <= to; ++h) {
      // Pruned heights live only in the store's resident header column
      // (pruning requires an attached store, so store_ is non-null there).
      out.push_back(h < builder_->base_height()
                        ? store_->HeaderAt(h)
                        : builder_->blocks()[h - builder_->base_height()]
                              .header);
    }
    return out;
  }

  Result<QueryResult> DecodeResult(const Bytes& response_bytes) const override {
    ByteReader r(ByteSpan(response_bytes.data(), response_bytes.size()));
    core::QueryResponse<Engine> resp;
    VCHAIN_RETURN_IF_ERROR(core::DeserializeResponse(engine_, &r, &resp));
    if (r.Remaining() != 0) {
      return Status::Corruption("trailing bytes after query response");
    }
    QueryResult out;
    out.response_bytes = response_bytes;
    out.vo_bytes = core::VoByteSize(engine_, resp.vo);
    out.objects = std::move(resp.objects);
    return out;
  }

  Status Verify(const core::Query& q, const QueryResult& result,
                const chain::LightClient& client) const override {
    ByteReader r(ByteSpan(result.response_bytes.data(),
                          result.response_bytes.size()));
    core::QueryResponse<Engine> resp;
    VCHAIN_RETURN_IF_ERROR(core::DeserializeResponse(engine_, &r, &resp));
    if (r.Remaining() != 0) {
      return Status::Corruption("trailing bytes after query response");
    }
    core::Verifier<Engine> verifier(engine_, options_.config, &client);
    return verifier.VerifyTimeWindow(q, resp);
  }

  Status VerifyNotification(const core::Query& q, const SubscriptionEvent& ev,
                            const chain::LightClient& client) const override {
    ByteReader r(ByteSpan(ev.notification_bytes.data(),
                          ev.notification_bytes.size()));
    sub::SubNotification<Engine> notif;
    VCHAIN_RETURN_IF_ERROR(
        sub::DeserializeSubNotification(engine_, &r, &notif));
    if (r.Remaining() != 0) {
      return Status::Corruption("trailing bytes after notification");
    }
    sub::SubVerifier<Engine> verifier(engine_, options_.config, &client);
    return verifier.VerifyNotification(q, notif);
  }

  // --- subscriptions -------------------------------------------------------

  Result<uint32_t> Subscribe(const core::Query& q) override {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    auto id = subs_.TrySubscribe(q);
    if (!id.ok()) return id.status();
    active_subscriptions_.emplace(id.value(), builder_->NumBlocks());
    flight::FlightRecorder::Get().Record("sub", "subscribe", id.value());
    // Events cover blocks appended from here on; with no prior subscribers
    // the drain cursor may lag (drains are skipped while nobody listens).
    sub_next_height_ = builder_->NumBlocks();
    sub::SubMetrics::Get().registered->Set(
        static_cast<double>(subs_.NumActive()));
    // Best-effort durability; Sync() is the hard commit point.
    (void)WriteCheckpointLocked();
    return id;
  }

  Status Unsubscribe(uint32_t id) override {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (active_subscriptions_.erase(id) == 0) {
      return Status::NotFound("unknown subscription id");
    }
    subs_.Unsubscribe(id);
    flight::FlightRecorder::Get().Record("sub", "unsubscribe", id);
    sub::SubMetrics::Get().registered->Set(
        static_cast<double>(subs_.NumActive()));
    (void)WriteCheckpointLocked();
    return Status::OK();
  }

  Result<SubscriptionEventBatch> EventsSince(uint32_t id, uint64_t cursor,
                                             size_t max_events) override {
    // Exclusive: regenerating a trimmed event re-matches a block through the
    // subscription manager, which mutates its per-query runtime caches.
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    auto it = active_subscriptions_.find(id);
    if (it == active_subscriptions_.end()) {
      return Status::NotFound("unknown subscription id");
    }
    if (max_events == 0) max_events = 1;
    const uint64_t end = sub_next_height_;  // heights below this are drained
    uint64_t from = std::max(cursor, it->second);
    SubscriptionEventBatch batch;
    batch.next_cursor = from;
    if (from >= end) return batch;
    // Index the still-logged events for this subscriber, then walk heights:
    // serve from the log when possible, regenerate when trimmed away.
    std::unordered_map<uint64_t, const SubscriptionEvent*> logged;
    for (const SubscriptionEvent& ev : event_log_) {
      if (ev.query_id == id && ev.height >= from && ev.height < end) {
        logged.emplace(ev.height, &ev);
      }
    }
    for (uint64_t h = from; h < end && batch.events.size() < max_events; ++h) {
      auto hit = logged.find(h);
      if (hit != logged.end()) {
        batch.events.push_back(*hit->second);
      } else {
        auto regen = RegenerateEventLocked(id, h);
        if (!regen.ok()) return regen.status();
        batch.events.push_back(regen.TakeValue());
        batch.redelivered = true;
        sub::SubMetrics::Get().redelivered_events->Inc();
      }
      batch.next_cursor = h + 1;
    }
    return batch;
  }

  Result<SubscriptionEvent> DecodeNotification(
      const Bytes& notification_bytes) const override {
    ByteReader r(
        ByteSpan(notification_bytes.data(), notification_bytes.size()));
    sub::SubNotification<Engine> notif;
    VCHAIN_RETURN_IF_ERROR(
        sub::DeserializeSubNotification(engine_, &r, &notif));
    if (r.Remaining() != 0) {
      return Status::Corruption("trailing bytes after notification");
    }
    SubscriptionEvent ev;
    ev.query_id = notif.query_id;
    ev.height = notif.height;
    ev.objects = std::move(notif.objects);
    ev.notification_bytes = notification_bytes;
    return ev;
  }

  // --- introspection -------------------------------------------------------

  ServiceStats Stats() const override {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    ServiceStats s;
    s.engine = options_.engine;
    s.durable = store_ != nullptr;
    s.degraded = degraded_;
    s.num_blocks = builder_->NumBlocks();
    s.queries_served = queries_served_.load(std::memory_order_relaxed);
    s.subscriptions_active = subs_.NumActive();
    s.subscription_events_pending = event_log_.size();
    if (ckpt_ != nullptr) s.sub_checkpoint_seq = ckpt_->latest_seq();
    s.proof_cache = proof_cache_.stats();
    if (disk_source_ != nullptr) s.block_cache = disk_source_->cache_stats();
    return s;
  }

  uint64_t NumBlocks() const override {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    return builder_->NumBlocks();
  }

  const ServiceOptions& options() const override { return options_; }

 private:
  ServiceBackend(ServiceOptions options, Engine engine)
      : options_(std::move(options)),
        engine_(std::move(engine)),
        proof_cache_(options_.config.proof_cache_capacity,
                     options_.proof_cache_shards),
        subs_(engine_, options_.config, {}) {}

  /// Rebuild subscription state from the latest valid checkpoint slot, then
  /// catch up on blocks mined while the SP was down (their notifications are
  /// buffered — blocks drained after the persisted cursor but before the
  /// crash are re-delivered: at-least-once). Runs at Create, pre-threading.
  Status RestoreCheckpoint() {
    const Bytes& payload = ckpt_->LatestPayload();
    ByteReader r(ByteSpan(payload.data(), payload.size()));
    uint64_t next_height = 0;
    sub::SubscriptionSnapshot<Engine> snap;
    VCHAIN_RETURN_IF_ERROR(
        sub::DeserializeSubCheckpoint(engine_, &r, &next_height, &snap));
    VCHAIN_RETURN_IF_ERROR(subs_.Restore(snap));
    for (const auto& entry : snap.queries) {
      // The original start height is not checkpointed; 0 permits redelivery
      // from genesis, and EventsSince callers clamp with their own cursor.
      active_subscriptions_.emplace(entry.id, 0);
    }
    // A crash can lose unsynced blocks the checkpoint already covered;
    // clamp and let the re-mined chain re-deliver.
    sub_next_height_ = std::min(next_height, builder_->NumBlocks());
    sub::SubMetrics::Get().registered->Set(
        static_cast<double>(subs_.NumActive()));
    sub::SubMetrics::Get().checkpoint_recoveries->Inc();
    flight::FlightRecorder::Get().Record("sub", "checkpoint_restore",
                                         ckpt_->latest_seq(),
                                         sub_next_height_);
    logging::Info("sub_checkpoint_restored")
        .Kv("seq", ckpt_->latest_seq())
        .Kv("subscriptions", subs_.NumActive())
        .Kv("next_height", sub_next_height_);
    DrainSubscriptionsLocked();
    return WriteCheckpointLocked();
  }

  /// Persist the current subscription state. Skipped while there is nothing
  /// to record (no subscriber ever registered and no prior checkpoint).
  /// Caller holds the exclusive lock (or runs pre-threading in Create).
  Status WriteCheckpointLocked() {
    if (ckpt_ == nullptr) return Status::OK();
    if (subs_.NumActive() == 0 && !ckpt_->HasCheckpoint()) return Status::OK();
    ByteWriter w;
    sub::SerializeSubCheckpoint(engine_, sub_next_height_, subs_.Snapshot(),
                                &w);
    Status st = ckpt_->WriteNext(ByteSpan(w.bytes().data(), w.bytes().size()));
    if (!st.ok()) {
      logging::Error("sub_checkpoint_write_failed")
          .Kv("reason", st.ToString());
      return st;
    }
    sub::SubMetrics::Get().checkpoint_writes->Inc();
    flight::FlightRecorder::Get().Record("sub", "checkpoint_write",
                                         ckpt_->latest_seq(),
                                         sub_next_height_);
    ckpt_height_ = sub_next_height_;
    return Status::OK();
  }

  /// Serialize a successful response into the erased QueryResult
  /// (serialize first, then move the result objects out — no copies).
  Result<QueryResult> Finish(Result<core::QueryResponse<Engine>> resp,
                             core::QueryTrace* trace) {
    if (!resp.ok()) return resp.status();
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    QueryResult out;
    // The serialize stage, last in core::kQueryStages.
    trace::ScopedSpan serialize_span(
        trace != nullptr ? trace->EnsureSpans() : nullptr,
        core::kQueryStages.back());
    ByteWriter w;
    core::SerializeResponse(engine_, resp.value(), &w);
    out.response_bytes = std::move(w.bytes());
    out.vo_bytes = core::VoByteSize(engine_, resp.value().vo);
    out.objects = std::move(resp.value().objects);
    return out;
  }

  /// Rebuild one event that the bounded log no longer holds by re-matching
  /// its block against the standing query. Pure function of (block, query):
  /// the regenerated notification_bytes are identical to what the realtime
  /// drain produced. Caller holds the exclusive lock; `height` must be
  /// below the drain cursor.
  Result<SubscriptionEvent> RegenerateEventLocked(uint32_t id,
                                                  uint64_t height) {
    auto build = [&](const core::Block<Engine>& block)
        -> Result<SubscriptionEvent> {
      auto notif = subs_.RebuildNotification(block, id);
      if (!notif.ok()) return notif.status();
      SubscriptionEvent ev;
      ev.query_id = notif.value().query_id;
      ev.height = notif.value().height;
      ByteWriter w;
      sub::SerializeSubNotification(engine_, notif.value(), &w);
      ev.notification_bytes = std::move(w.bytes());
      ev.objects = std::move(notif.value().objects);
      return ev;
    };
    if (disk_source_ != nullptr) {
      auto handle = disk_source_->MakeHandle(store_->NumBlocks());
      return build(handle.BlockAt(height));
    }
    // In-memory mode never prunes (retain_window requires a store), so the
    // builder's vector is indexed by absolute height.
    return build(builder_->blocks()[height]);
  }

  /// Caller holds the exclusive lock. Keeps the first fault's message.
  void EnterDegradedLocked(const Status& cause) {
    degraded_ = true;
    degraded_reason_ = cause.ToString();
    flight::FlightRecorder::Get().Record("service", "degraded",
                                         builder_->NumBlocks());
    logging::Error("service_degraded").Kv("reason", degraded_reason_);
  }

  /// Run every block since the last drain past the standing queries,
  /// buffering one event per (query, block). Caller holds the exclusive
  /// lock. Skips entirely (cursor fast-forwarded at Subscribe) while no
  /// subscription is active.
  void DrainSubscriptionsLocked() {
    uint64_t tip = builder_->NumBlocks();
    if (active_subscriptions_.empty()) {
      sub_next_height_ = tip;
      return;
    }
    static metrics::Histogram* drain_seconds =
        metrics::Registry::Default().GetLatencyHistogram(
            "vchain_service_subscription_drain_seconds",
            "Per-append standing-query drain latency");
    metrics::ScopedTimer timer(drain_seconds);
    const trace::AmbientSpan amb = trace::CurrentSpan();
    trace::ScopedSpan dispatch_span(
        amb.tree, "sub_dispatch",
        amb.parent != 0 ? amb.parent : trace::kRootSpan);
    const uint64_t drain_from = sub_next_height_;
    const uint64_t events_before = log_start_seq_ + event_log_.size();
    auto drain = [&](const store::BlockSource<Engine>& source) {
      while (sub_next_height_ < tip) {
        for (auto& notif : subs_.ProcessNewBlocks(source, &sub_next_height_)) {
          SubscriptionEvent ev;
          ev.query_id = notif.query_id;
          ev.height = notif.height;
          ev.objects = notif.objects;
          ByteWriter w;
          sub::SerializeSubNotification(engine_, notif, &w);
          ev.notification_bytes = std::move(w.bytes());
          event_log_.push_back(std::move(ev));
        }
        // Bound the redelivery log; trimmed events are regenerated on
        // demand by EventsSince (memory stays O(capacity) no matter how
        // far a slow consumer falls behind).
        while (options_.sub_event_log_capacity != 0 &&
               event_log_.size() > options_.sub_event_log_capacity) {
          event_log_.pop_front();
          ++log_start_seq_;
        }
      }
    };
    if (disk_source_ != nullptr) {
      auto handle = disk_source_->MakeHandle(tip);
      drain(handle);
    } else {
      store::VectorBlockSource<Engine> source(&builder_->blocks());
      drain(source);
    }
    dispatch_span.Note("blocks", sub_next_height_ - drain_from);
    dispatch_span.Note("events",
                       (log_start_seq_ + event_log_.size()) - events_before);
    // Periodic checkpoint: bound the at-least-once replay window to the
    // configured number of drained blocks. Best-effort (Sync is the hard
    // commit point; a failure already logged inside).
    if (ckpt_ != nullptr && options_.sub_checkpoint_interval_blocks != 0 &&
        sub_next_height_ - ckpt_height_ >=
            options_.sub_checkpoint_interval_blocks) {
      (void)WriteCheckpointLocked();
    }
  }

  ServiceOptions options_;
  Engine engine_;

  std::unique_ptr<store::BlockStore> store_;  // null in in-memory mode
  std::unique_ptr<core::ChainBuilder<Engine>> builder_;
  std::unique_ptr<store::ConcurrentStoreBlockSource<Engine>> disk_source_;

  core::ProofCache<Engine> proof_cache_;
  sub::SubscriptionManager<Engine> subs_;
  /// id -> first block height the subscription covers (cursors below it are
  /// clamped up; 0 after a checkpoint restore, where the original start is
  /// unknown and redelivery from genesis is permitted).
  std::map<uint32_t, uint64_t> active_subscriptions_;
  uint64_t sub_next_height_ = 0;
  /// Bounded redelivery log: every drained event, oldest first. Events are
  /// assigned monotonically increasing sequence numbers; the front of the
  /// deque holds seq `log_start_seq_`. Capacity-trimmed at append
  /// (ServiceOptions::sub_event_log_capacity); EventsSince regenerates
  /// anything trimmed away by re-matching the block.
  std::deque<SubscriptionEvent> event_log_;
  uint64_t log_start_seq_ = 0;
  std::unique_ptr<sub::CheckpointSlots> ckpt_;  // null unless durable + on
  uint64_t ckpt_height_ = 0;  ///< drain cursor at the last checkpoint write

  bool degraded_ = false;  ///< storage write fault -> read-only
  std::string degraded_reason_;

  mutable std::shared_mutex state_mu_;
  std::atomic<uint64_t> queries_served_{0};
};

}  // namespace vchain::api

#endif  // VCHAIN_API_BACKEND_IMPL_H_
