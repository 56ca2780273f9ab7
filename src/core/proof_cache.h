// SP-side disjointness-proof cache.
//
// The dominant SP cost is ProveDisjoint. The same (node multiset, clause)
// pair recurs constantly — across blocks of a window walk, and massively
// across subscription queries that share clauses (§7.1's motivation for the
// IP-Tree). Proofs are cached under H(digest_bytes | clause_bytes), which is
// canonical for any engine.
//
// The cache is LRU-bounded (kDefaultCapacity, 64Ki proofs): a standing
// subscription SP proves against an ever-growing set of node digests, so an
// unbounded map is a slow leak. Hits refresh recency; inserting past
// capacity evicts the coldest entry and bumps `Stats::evictions`. Tests pass
// a tiny capacity (or 0 = unbounded) to reach eviction directly.
//
// Thread safety: the cache is safe to share across QueryProcessors queried
// from many threads concurrently (the concurrent-SP shape of api::Service).
// Internally it is mutex-striped: keys are partitioned over `shards`
// independently-locked LRU maps, so concurrent queries only contend when
// their keys collide on a shard. With `shards == 1` (the default, used by a
// standalone processor or subscription manager) the cache is one exact
// global LRU; with more shards each shard LRU-bounds its own partition
// (total resident proofs stay within capacity + shards - 1), which is the
// right trade for a cache hammered by many query threads (api::Service
// shares one 16-stripe cache between its queries and its subscription
// drain). GetOrProve is the only way in: a lookup and its insert always
// pair with the proof they describe. Proofs are deterministic, so cache
// behavior — including two threads racing to prove the same key — can never
// change a proof, digest, or VO byte; it only affects how often
// ProveDisjoint runs.

#ifndef VCHAIN_CORE_PROOF_CACHE_H_
#define VCHAIN_CORE_PROOF_CACHE_H_

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "accum/multiset.h"
#include "common/lru.h"
#include "crypto/sha256.h"

namespace vchain::core {

template <typename Engine>
class ProofCache {
 public:
  using Stats = LruStats;
  using Key = crypto::Hash32;

  /// Resident proofs every production cache keeps.
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  /// `capacity` = max resident proofs; 0 = unbounded. `shards` = number of
  /// independently-locked LRU partitions (rounded up to 1); use 1 for an
  /// exact global LRU, more (e.g. 16) when many threads share the cache.
  explicit ProofCache(size_t capacity = kDefaultCapacity, size_t shards = 1) {
    if (shards < 1) shards = 1;
    size_t per_shard =
        capacity == 0 ? 0 : (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  /// Returns the cached or freshly-computed proof for (w, clause); forwards
  /// ProveDisjoint errors (i.e. the sets intersect). The proof itself is
  /// computed outside any lock — a miss never serializes other threads
  /// behind a multiexp; two threads racing on one key both prove it and the
  /// second Put keeps the first entry. `was_hit` (optional) reports whether
  /// the proof came from the cache — per-call attribution the aggregated
  /// stats() cannot give a tracing caller.
  Result<typename Engine::Proof> GetOrProve(
      const Engine& engine, const typename Engine::ObjectDigest& digest,
      const accum::Multiset& w, const accum::Multiset& clause,
      bool* was_hit = nullptr) {
    Key key = KeyFor(engine, digest, clause);
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (const typename Engine::Proof* hit = shard.map.Get(key)) {
        if (was_hit != nullptr) *was_hit = true;
        return *hit;
      }
    }
    if (was_hit != nullptr) *was_hit = false;
    auto proof = engine.ProveDisjoint(w, clause);
    if (proof.ok()) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.Put(key, proof.value());
    }
    return proof;
  }

  /// Aggregated hit/miss/eviction counters across all shards (a consistent
  /// per-shard snapshot; shards are read one lock at a time).
  Stats stats() const {
    Stats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      const Stats& s = shard->map.stats();
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
    }
    return out;
  }

  size_t size() const {
    size_t out = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out += shard->map.size();
    }
    return out;
  }

 private:
  /// Canonical cache key for a (digest, clause) pair — H(digest | clause).
  static Key KeyFor(const Engine& engine,
                    const typename Engine::ObjectDigest& digest,
                    const accum::Multiset& clause) {
    ByteWriter w;
    engine.SerializeDigest(digest, &w);
    clause.Serialize(&w);
    return crypto::Sha256Digest(ByteSpan(w.bytes().data(), w.bytes().size()));
  }

  struct KeyHasher {
    size_t operator()(const Key& k) const {
      size_t out;
      std::memcpy(&out, k.data(), sizeof(out));
      return out;
    }
  };

  struct Shard {
    explicit Shard(size_t per_shard_capacity) : map(per_shard_capacity) {}
    mutable std::mutex mu;
    LruMap<Key, typename Engine::Proof, KeyHasher> map;
  };

  Shard& ShardFor(const Key& key) const {
    if (shards_.size() == 1) return *shards_[0];
    // Shard on a key byte the intra-shard hash does not consume (KeyHasher
    // reads bytes [0, 8)); SHA-256 output bytes are independent, so any
    // byte spreads uniformly.
    uint64_t sel;
    std::memcpy(&sel, key.data() + 8, sizeof(sel));
    return *shards_[sel % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_PROOF_CACHE_H_
