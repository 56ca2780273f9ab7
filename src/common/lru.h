// Bounded LRU map shared by the SP-side caches (disjointness proofs in
// core/proof_cache.h, decoded blocks in store/concurrent_block_source.h) so
// both keep one eviction/bookkeeping implementation.
//
// Semantics: `Get` refreshes recency and counts a hit or miss; `Put` inserts
// (or refreshes an existing key) without touching hit/miss counters and
// evicts the least-recently-used entry past capacity. Pointers returned by
// Get/Put stay valid until the pointed-to entry is evicted or the map is
// cleared (node-based storage — no rehash/reallocation invalidation).
//
// NOT thread-safe, by design: both users hold their own mutex around it.

#ifndef VCHAIN_COMMON_LRU_H_
#define VCHAIN_COMMON_LRU_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace vchain {

struct LruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  /// `capacity` = max resident entries; 0 = unbounded.
  explicit LruMap(size_t capacity = 0) : capacity_(capacity) {}

  /// The value for `key` (refreshed to most-recent), or nullptr.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  /// Insert `value` under `key` (or refresh an existing entry, keeping its
  /// old value), evicting the coldest entry past capacity. Returns the
  /// resident value.
  V* Put(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->second;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    if (capacity_ != 0 && lru_.size() > capacity_) {
      ++stats_.evictions;
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    return &lru_.front().second;
  }

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  const LruStats& stats() const { return stats_; }
  void Clear() {
    lru_.clear();
    index_.clear();
  }

 private:
  using Entry = std::pair<K, V>;

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
  LruStats stats_;
};

}  // namespace vchain

#endif  // VCHAIN_COMMON_LRU_H_
