// Regression tests for the skip-walk window boundary (Algorithm 4): a skip
// whose coverage ends exactly on the window start must be taken, terminate
// the walk cleanly (including the height-0 unsigned wrap-around), and still
// yield a verifiable VO. A query whose clause matches nothing forces every
// block to mismatch, so the walk consumes the largest legal skips.

#include <gtest/gtest.h>

#include "accum/mock.h"
#include "core/vchain.h"
#include "workload/datasets.h"

namespace vchain::core {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using workload::DatasetGenerator;
using workload::DatasetProfile;

template <typename Engine>
struct Fixture {
  Fixture()
      : oracle(KeyOracle::Create(/*seed=*/21, AccParams{16})),
        engine(oracle),
        profile(workload::Profile4SQ(4)) {
    cfg.mode = IndexMode::kBoth;
    cfg.schema = profile.schema;
    cfg.skiplist_size = 2;  // skip distances 4 and 8
    miner = std::make_unique<ChainBuilder<Engine>>(engine, cfg);
    DatasetGenerator gen(profile, /*seed=*/5);
    for (int b = 0; b < 16; ++b) {
      auto objs = gen.NextBlock();
      EXPECT_TRUE(
          miner->AppendBlock(std::move(objs), 1000 + static_cast<uint64_t>(b))
              .ok());
    }
    EXPECT_TRUE(miner->SyncLightClient(&light).ok());
  }

  /// A query over heights [first, last] that no object satisfies.
  Query NoMatchQuery(uint64_t first, uint64_t last) const {
    Query q;
    q.time_start = 1000 + first;
    q.time_end = 1000 + last;
    q.keyword_cnf = {{"__no_such_keyword__"}};
    return q;
  }

  std::shared_ptr<KeyOracle> oracle;
  Engine engine;
  DatasetProfile profile;
  ChainConfig cfg;
  std::unique_ptr<ChainBuilder<Engine>> miner;
  chain::LightClient light;
};

template <typename Engine>
void RunBoundaryCases() {
  Fixture<Engine> fx;
  store::VectorBlockSource<Engine> source(&fx.miner->blocks());
  QueryProcessor<Engine> sp(fx.engine, fx.cfg, &source);
  Verifier<Engine> verifier(fx.engine, fx.cfg, &fx.light);

  // Case 1: skip lands exactly on the window start. Window [8, 12]: block 12
  // is processed, its distance-4 skip covers [8, 11] — precisely down to the
  // window start — and the walk must stop there.
  {
    Query q = fx.NoMatchQuery(8, 12);
    auto resp = sp.TimeWindowQuery(q);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.value().objects.empty());
    size_t blocks = 0, skips = 0;
    for (const auto& step : resp.value().vo.steps) {
      std::holds_alternative<BlockVO<Engine>>(step) ? ++blocks : ++skips;
    }
    EXPECT_EQ(blocks, 1u) << "only the newest block should be processed";
    EXPECT_EQ(skips, 1u) << "the distance-4 skip should cover the rest";
    EXPECT_TRUE(verifier.VerifyTimeWindow(q, resp.value()).ok());
  }

  // Case 2: window starts at height 0 and the skip lands exactly on it —
  // the cursor arithmetic wraps below zero and the walk must still stop.
  // Window [0, 8]: block 8 processed, distance-8 skip covers [0, 7].
  {
    Query q = fx.NoMatchQuery(0, 8);
    auto resp = sp.TimeWindowQuery(q);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.value().objects.empty());
    size_t blocks = 0, skips = 0;
    for (const auto& step : resp.value().vo.steps) {
      std::holds_alternative<BlockVO<Engine>>(step) ? ++blocks : ++skips;
    }
    EXPECT_EQ(blocks, 1u);
    EXPECT_EQ(skips, 1u);
    EXPECT_TRUE(verifier.VerifyTimeWindow(q, resp.value()).ok());
  }

  // Case 3: skip would overshoot by one — window [9, 12]: the distance-4
  // skip of block 12 covers [8, 11], one below the start, so it must be
  // rejected and the walk falls back to per-block processing.
  {
    Query q = fx.NoMatchQuery(9, 12);
    auto resp = sp.TimeWindowQuery(q);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.value().objects.empty());
    size_t blocks = 0, skips = 0;
    for (const auto& step : resp.value().vo.steps) {
      std::holds_alternative<BlockVO<Engine>>(step) ? ++blocks : ++skips;
    }
    EXPECT_EQ(skips, 0u) << "no legal skip exists inside [9, 12]";
    EXPECT_EQ(blocks, 4u);
    EXPECT_TRUE(verifier.VerifyTimeWindow(q, resp.value()).ok());
  }
}

TEST(SkipBoundaryTest, MockAcc1) { RunBoundaryCases<accum::MockAcc1Engine>(); }
TEST(SkipBoundaryTest, MockAcc2) { RunBoundaryCases<accum::MockAcc2Engine>(); }

}  // namespace
}  // namespace vchain::core
