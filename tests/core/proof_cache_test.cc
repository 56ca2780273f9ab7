// LRU bounding of the SP's disjointness-proof cache: capacity is enforced,
// recency is refreshed by hits, evictions are counted, and capacity 0 keeps
// the old unbounded behavior.

#include <gtest/gtest.h>

#include "accum/mock.h"
#include "core/proof_cache.h"

namespace vchain::core {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using accum::MockAcc2Engine;
using accum::Multiset;

MockAcc2Engine MakeEngine() {
  AccParams params;
  params.universe_bits = 16;
  return MockAcc2Engine(KeyOracle::Create(/*seed=*/99, params));
}

/// Distinct disjoint (w, clause) pairs: w = {2k}, clause = {2k+1}.
Multiset W(uint64_t k) { return Multiset{2 * k + 2}; }
Multiset Clause(uint64_t k) { return Multiset{2 * k + 3}; }

TEST(ProofCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  MockAcc2Engine engine = MakeEngine();
  ProofCache<MockAcc2Engine> cache(/*capacity=*/2);

  auto prove = [&](uint64_t k) {
    auto proof = cache.GetOrProve(engine, engine.Digest(W(k)), W(k), Clause(k));
    ASSERT_TRUE(proof.ok());
  };

  prove(0);  // miss -> {0}
  prove(1);  // miss -> {1, 0}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  prove(0);  // hit, refreshes 0 -> {0, 1}
  EXPECT_EQ(cache.stats().hits, 1u);

  prove(2);  // miss, evicts 1 (LRU after the refresh) -> {2, 0}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // 0 survived thanks to the refresh; 1 was evicted. (Probe 0 first: the
  // re-proved 1 then evicts 2, not 0.)
  auto was_hit = [&](uint64_t k) {
    bool hit = false;
    auto proof = cache.GetOrProve(engine, engine.Digest(W(k)), W(k),
                                  Clause(k), &hit);
    EXPECT_TRUE(proof.ok());
    return hit;
  };
  EXPECT_TRUE(was_hit(0));
  EXPECT_FALSE(was_hit(1));
}

TEST(ProofCacheTest, ReprovingAfterEvictionStillReturnsIdenticalProof) {
  MockAcc2Engine engine = MakeEngine();
  ProofCache<MockAcc2Engine> cache(/*capacity=*/1);
  auto first = cache.GetOrProve(engine, engine.Digest(W(0)), W(0), Clause(0));
  ASSERT_TRUE(first.ok());
  auto evictor = cache.GetOrProve(engine, engine.Digest(W(1)), W(1), Clause(1));
  ASSERT_TRUE(evictor.ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Proofs are deterministic: eviction affects cost, never bytes.
  auto again = cache.GetOrProve(engine, engine.Digest(W(0)), W(0), Clause(0));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), first.value());
}

TEST(ProofCacheTest, ZeroCapacityMeansUnbounded) {
  MockAcc2Engine engine = MakeEngine();
  ProofCache<MockAcc2Engine> cache(/*capacity=*/0);
  for (uint64_t k = 0; k < 100; ++k) {
    auto proof = cache.GetOrProve(engine, engine.Digest(W(k)), W(k), Clause(k));
    ASSERT_TRUE(proof.ok());
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace vchain::core
