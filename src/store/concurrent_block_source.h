// Disk-backed block reads: the one decoded-block cache over a BlockStore.
//
// A plain LRU of blocks returns references whose lifetime ends at the next
// eviction, which is exactly wrong once several query threads share one
// cache — thread A's hot reference dies when thread B faults a cold block
// in. ConcurrentStoreBlockSource is a shared, mutex-protected LRU of
// *shared_ptr*-owned decoded blocks plus cheap per-query Handles; a
// single-threaded reader (a test, a bench, a cold-start tool) takes one
// handle and uses it like any other BlockSource:
//
//   * the shared cache bounds total decoded blocks across all threads
//     (eviction drops the cache's reference; a block stays alive for any
//     thread still holding it — memory is bounded by capacity + one pinned
//     block per in-flight query);
//   * a Handle implements BlockSource by pinning the shared_ptr of the block
//     it last returned, which is precisely the reference contract the query
//     walk relies on ("valid until the next BlockAt on the same source") —
//     per handle, so handles on different threads never invalidate each
//     other;
//   * a Handle is created with a height limit, freezing the chain view at
//     the moment the query was admitted: a miner appending concurrently
//     never shifts a window mid-walk.
//
// Decoding happens outside the cache lock (BlockStore reads are positional
// pread — many readers share the segment fds), so a cold miss never
// serializes other threads behind disk + decode; two threads racing on the
// same height may decode it twice, and the first insert wins (decoded
// blocks are deterministic, so either copy is correct).
//
// Writer exclusion is the caller's job: BlockStore::Append mutates the
// header/index vectors these reads traverse, so appends must be exclusive
// with in-flight handles (api::Service holds a shared_mutex — queries
// shared, appends exclusive).

#ifndef VCHAIN_STORE_CONCURRENT_BLOCK_SOURCE_H_
#define VCHAIN_STORE_CONCURRENT_BLOCK_SOURCE_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "common/lru.h"
#include "common/span.h"
#include "store/block_source.h"

namespace vchain::store {

template <typename Engine>
class ConcurrentStoreBlockSource {
 public:
  using BlockPtr = std::shared_ptr<const core::Block<Engine>>;
  using CacheStats = LruStats;

  /// `capacity` bounds decoded blocks resident in the shared cache (>= 1).
  /// Size it to the expected hot window: a subscription SP wants at least
  /// the max skip distance, an analytics SP the typical query window.
  ConcurrentStoreBlockSource(const Engine& engine, const BlockStore* store,
                             size_t capacity = kDefaultCacheBlocks)
      : engine_(engine), store_(store), cache_(capacity < 1 ? 1 : capacity) {}

  static constexpr size_t kDefaultCacheBlocks = 256;

  ConcurrentStoreBlockSource(const ConcurrentStoreBlockSource&) = delete;
  ConcurrentStoreBlockSource& operator=(const ConcurrentStoreBlockSource&) =
      delete;

  /// A per-query BlockSource view over the shared cache. Not itself
  /// thread-safe — each concurrent query takes its own handle (they are two
  /// pointers and a pin; creation is free).
  class Handle final : public BlockSource<Engine> {
   public:
    Handle(const ConcurrentStoreBlockSource* parent, uint64_t height_limit)
        : parent_(parent), height_limit_(height_limit) {}

    uint64_t NumBlocks() const override {
      return std::min(height_limit_, parent_->store_->NumBlocks());
    }

    uint64_t TimestampAt(uint64_t height) const override {
      return parent_->store_->HeaderAt(height).timestamp;
    }

    const core::Block<Engine>& BlockAt(uint64_t height) const override {
      auto block = parent_->Fetch(height);
      if (!block.ok()) {
        // The store verified CRCs and the header chain at open, so an
        // unreadable block here means the disk mutated underneath a live
        // SP. No graceful answer exists at this interface — fail loudly
        // rather than serve garbage.
        std::fprintf(stderr,
                     "ConcurrentStoreBlockSource: block %llu unreadable: %s\n",
                     static_cast<unsigned long long>(height),
                     block.status().ToString().c_str());
        std::abort();
      }
      pinned_ = block.TakeValue();
      return *pinned_;
    }

   private:
    const ConcurrentStoreBlockSource* parent_;
    uint64_t height_limit_;
    mutable BlockPtr pinned_;  ///< keeps the last-returned block alive
  };

  /// A handle frozen at `height_limit` blocks (the chain as of query
  /// admission); defaults to "everything the store has".
  Handle MakeHandle(
      uint64_t height_limit = std::numeric_limits<uint64_t>::max()) const {
    return Handle(this, height_limit);
  }

  /// The decoded block at `height`, shared with every thread reading it.
  Result<BlockPtr> Fetch(uint64_t height) const {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const BlockPtr* hit = cache_.Get(height)) return *hit;
    }
    // Cache miss = store read + decode outside the lock; attach it to the
    // walk span of the query ambiently tracing on this thread, if any.
    const trace::AmbientSpan amb = trace::CurrentSpan();
    trace::ScopedSpan read_span(amb.tree, "block_read",
                                amb.parent != 0 ? amb.parent : trace::kRootSpan);
    read_span.Note("height", height);
    auto block = ReadBlockFromStore(engine_, *store_, height);
    if (!block.ok()) return block.status();
    auto decoded = std::make_shared<const core::Block<Engine>>(
        block.TakeValue());
    std::lock_guard<std::mutex> lock(mu_);
    // Put keeps an existing entry (a racing thread decoded it first), so
    // all readers converge on one resident copy either way.
    return *cache_.Put(height, std::move(decoded));
  }

  CacheStats cache_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.stats();
  }
  size_t cached_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  size_t capacity() const { return cache_.capacity(); }
  const BlockStore* block_store() const { return store_; }

 private:
  const Engine& engine_;
  const BlockStore* store_;
  mutable std::mutex mu_;
  mutable LruMap<uint64_t, BlockPtr> cache_;
};

}  // namespace vchain::store

#endif  // VCHAIN_STORE_CONCURRENT_BLOCK_SOURCE_H_
