// The subscription matcher (sub/match/): clause-index units, randomized
// equivalence against the per-query oracle (tests/sub/match_oracle.h;
// byte-identical notifications across all four engines, all index modes,
// lazy included), subscribe/unsubscribe churn, and service-level
// subscribe-during-append stress.

#include "sub/match/clause_index.h"

#include <gtest/gtest.h>

#include <thread>

#include "api/service.h"
#include "common/rand.h"
#include "core/vchain.h"
#include "match_oracle.h"
#include "sub/sub_serde.h"
#include "sub/subscription.h"

namespace vchain::sub {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using core::Query;

constexpr uint64_t kBaseTime = 5000;
constexpr uint64_t kStep = 10;

// --- ClauseIndex units ------------------------------------------------------

TEST(ClauseIndexTest, InternDedupsByContentAndRefcounts) {
  ClauseIndex idx;
  accum::Multiset a{1, 2, 3};
  accum::Multiset b{4, 5};
  uint32_t c1 = idx.Intern(a, {11, 12, 13}, false);
  uint32_t c2 = idx.Intern(a, {11, 12, 13}, false);  // same content
  uint32_t c3 = idx.Intern(b, {14, 15}, true);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_EQ(idx.NumClauses(), 2u);
  EXPECT_EQ(idx.NumRangeClauses(), 1u);
  EXPECT_EQ(idx.SetOf(c1), a);
  // Two references on c1: the first release keeps it alive.
  idx.Release(c1);
  EXPECT_EQ(idx.NumClauses(), 2u);
  idx.Release(c1);
  EXPECT_EQ(idx.NumClauses(), 1u);
}

TEST(ClauseIndexTest, EpochHitsResetPerBlock) {
  ClauseIndex idx;
  uint32_t c1 = idx.Intern(accum::Multiset{1}, {10}, false);
  uint32_t c2 = idx.Intern(accum::Multiset{2}, {20}, false);
  idx.BeginBlock();
  idx.MarkElement(10);
  EXPECT_TRUE(idx.IsHit(c1));
  EXPECT_FALSE(idx.IsHit(c2));
  idx.BeginBlock();  // O(1) invalidation
  EXPECT_FALSE(idx.IsHit(c1));
  idx.MarkElement(20);
  EXPECT_FALSE(idx.IsHit(c1));
  EXPECT_TRUE(idx.IsHit(c2));
  idx.MarkElement(99);  // unknown element: no-op
}

TEST(ClauseIndexTest, ReleaseScrubsPostingsAndRecyclesIds) {
  ClauseIndex idx;
  uint32_t c1 = idx.Intern(accum::Multiset{1, 2}, {10, 20}, false);
  EXPECT_EQ(idx.NumPostings(), 2u);
  idx.Release(c1);
  EXPECT_EQ(idx.NumClauses(), 0u);
  EXPECT_EQ(idx.NumPostings(), 0u);
  // Dead clause no longer reachable through postings.
  idx.BeginBlock();
  idx.MarkElement(10);
  EXPECT_FALSE(idx.IsHit(c1));
  // The id is recycled for the next distinct clause.
  uint32_t c2 = idx.Intern(accum::Multiset{7}, {70}, true);
  EXPECT_EQ(c2, c1);
  EXPECT_EQ(idx.NumClauses(), 1u);
}

// --- equivalence harness ----------------------------------------------------

template <typename Engine>
Engine MakeEngine(uint64_t seed = 404) {
  auto oracle = KeyOracle::Create(seed, AccParams{14});
  return Engine(oracle);
}

template <typename Engine>
struct MatchEnv {
  explicit MatchEnv(core::IndexMode mode = core::IndexMode::kBoth)
      : engine(MakeEngine<Engine>()) {
    config.mode = mode;
    config.schema = NumericSchema{2, 6};
    config.skiplist_size = 2;
    builder = std::make_unique<core::ChainBuilder<Engine>>(engine, config);
  }

  void Mine(size_t n, bool allow_matches, uint64_t seed) {
    Rng rng(seed);
    static const char* kWords[] = {"red", "green", "blue", "hit"};
    for (size_t b = 0; b < n; ++b) {
      std::vector<chain::Object> objs;
      for (int i = 0; i < 3; ++i) {
        chain::Object o;
        o.id = next_id++;
        o.timestamp = kBaseTime + builder->blocks().size() * kStep;
        if (allow_matches && i == 0) {
          o.numeric = {rng.Below(16), rng.Below(16)};
          o.keywords = {"hit", kWords[rng.Below(3)]};
        } else {
          o.numeric = {16 + rng.Below(48), 16 + rng.Below(48)};
          o.keywords = {kWords[rng.Below(3)], kWords[rng.Below(3)]};
        }
        objs.push_back(std::move(o));
      }
      uint64_t ts = kBaseTime + builder->blocks().size() * kStep;
      auto st = builder->AppendBlock(std::move(objs), ts);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
  }

  Engine engine;
  core::ChainConfig config;
  std::unique_ptr<core::ChainBuilder<Engine>> builder;
  uint64_t next_id = 0;
};

/// Random standing query mixing boundary/point/overlapping ranges with
/// keyword CNFs (never-matching keywords included so some queries go
/// permanently silent).
Query RandomQuery(Rng* rng) {
  Query q;
  static const char* kWords[] = {"red", "green", "blue", "hit", "nosuchword"};
  for (uint32_t d = 0; d < 2; ++d) {
    if (rng->Below(3) == 0) continue;  // dimension unconstrained
    uint64_t a = rng->Below(64), b = rng->Below(64);
    if (a > b) std::swap(a, b);
    switch (rng->Below(6)) {
      case 0:
        a = 0;  // left domain boundary
        break;
      case 1:
        b = 63;  // right domain boundary
        break;
      case 2:
        b = a;  // point range
        break;
      case 3:
        a = 0, b = 63;  // whole domain
        break;
      default:
        break;
    }
    q.ranges.push_back({d, a, b});
  }
  uint32_t n_clauses = rng->Below(3);
  for (uint32_t c = 0; c < n_clauses; ++c) {
    std::vector<std::string> clause;
    uint32_t n_kw = 1 + rng->Below(2);
    for (uint32_t k = 0; k < n_kw; ++k) clause.push_back(kWords[rng->Below(5)]);
    q.keyword_cnf.push_back(std::move(clause));
  }
  if (q.ranges.empty() && q.keyword_cnf.empty()) q.keyword_cnf = {{"hit"}};
  return q;
}

template <typename Engine>
Bytes NotifBytes(const Engine& e, const SubNotification<Engine>& n) {
  ByteWriter w;
  SerializeSubNotification(e, n, &w);
  return w.TakeBytes();
}

template <typename Engine>
Bytes BatchBytes(const Engine& e, const LazyBatch<Engine>& b) {
  ByteWriter w;
  SerializeLazyBatch(e, b, &w);
  return w.TakeBytes();
}

template <typename Engine>
void ExpectBlockEquivalent(MatchEnv<Engine>& env,
                           SubscriptionManager<Engine>& oracle,
                           SubscriptionManager<Engine>& indexed,
                           const core::Block<Engine>& block) {
  auto a = OracleProcessBlock(oracle, block);
  auto b = indexed.ProcessBlock(block);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_EQ(NotifBytes(env.engine, a[i]), NotifBytes(env.engine, b[i]))
        << "query " << a[i].query_id << " height " << block.header.height;
  }
}

template <typename Engine>
void RunEquivalence(uint64_t seed, size_t n_subs, size_t n_blocks,
                    core::IndexMode mode = core::IndexMode::kBoth,
                    bool prefer_cells = false, bool use_ip_tree = true) {
  MatchEnv<Engine> env(mode);
  typename SubscriptionManager<Engine>::Options opts;
  opts.prefer_cell_exclusions = prefer_cells;
  opts.use_ip_tree = use_ip_tree;
  SubscriptionManager<Engine> oracle(env.engine, env.config, opts);
  SubscriptionManager<Engine> indexed(env.engine, env.config, opts);

  Rng rng(seed);
  for (size_t i = 0; i < n_subs; ++i) {
    Query q = RandomQuery(&rng);
    auto ida = oracle.TrySubscribe(q);
    auto idb = indexed.TrySubscribe(q);
    ASSERT_TRUE(ida.ok());
    ASSERT_TRUE(idb.ok());
    ASSERT_EQ(ida.value(), idb.value());
    if (rng.Below(4) == 0) {  // explicit duplicate: exercises grouping
      ASSERT_EQ(oracle.TrySubscribe(q).value(), indexed.TrySubscribe(q).value());
    }
  }
  // Match-bearing blocks, then all-mismatch blocks (empty-match path).
  env.Mine(n_blocks / 2 + 1, /*allow_matches=*/true, seed * 7 + 1);
  env.Mine(n_blocks / 2, /*allow_matches=*/false, seed * 7 + 2);
  for (const auto& block : env.builder->blocks()) {
    ExpectBlockEquivalent(env, oracle, indexed, block);
  }
}

template <typename Engine>
class SubMatchEquivalenceTest : public ::testing::Test {};

using AllEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                     accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(SubMatchEquivalenceTest, AllEngines);

TYPED_TEST(SubMatchEquivalenceTest, RandomizedNotificationsBitIdentical) {
  // Real-curve engines prove slowly; trim sizes, keep the same shapes.
  constexpr bool kMock = std::is_same_v<TypeParam, accum::MockAcc1Engine> ||
                         std::is_same_v<TypeParam, accum::MockAcc2Engine>;
  const size_t subs = kMock ? 24 : 6;
  const size_t blocks = kMock ? 8 : 4;
  RunEquivalence<TypeParam>(/*seed=*/1, subs, blocks);
}

TEST(SubMatchEquivalenceModesTest, FlatModeAndCellPolicyAndNoSharing) {
  // The non-fast dispatch paths: kNil (flat proof trees), cell-preferring
  // exclusions, and the no-proof-sharing configuration.
  RunEquivalence<accum::MockAcc2Engine>(/*seed=*/2, 16, 6, core::IndexMode::kNil);
  RunEquivalence<accum::MockAcc2Engine>(/*seed=*/3, 16, 6,
                                        core::IndexMode::kBoth,
                                        /*prefer_cells=*/true);
  RunEquivalence<accum::MockAcc2Engine>(/*seed=*/4, 16, 6,
                                        core::IndexMode::kBoth,
                                        /*prefer_cells=*/false,
                                        /*use_ip_tree=*/false);
}

TEST(SubMatchEquivalenceModesTest, OnlySilentSubscriptions) {
  // Every query silent on every block: pure mismatch fast path vs oracle.
  MatchEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  SubscriptionManager<accum::MockAcc2Engine> oracle(env.engine, env.config,
                                                    opts);
  SubscriptionManager<accum::MockAcc2Engine> indexed(env.engine, env.config,
                                                     opts);
  Query q;
  q.keyword_cnf = {{"nosuchword"}};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(oracle.TrySubscribe(q).ok());
    ASSERT_TRUE(indexed.TrySubscribe(q).ok());
  }
  env.Mine(4, /*allow_matches=*/false, 9);
  for (const auto& block : env.builder->blocks()) {
    ExpectBlockEquivalent(env, oracle, indexed, block);
  }
}

// --- lazy equivalence -------------------------------------------------------

template <typename Engine>
void RunLazyEquivalence(uint64_t seed, size_t n_subs, size_t n_blocks) {
  MatchEnv<Engine> env;
  typename SubscriptionManager<Engine>::Options opts;
  opts.lazy = true;
  LazyOracle<Engine> oracle(env.engine, env.config, opts);
  SubscriptionManager<Engine> indexed(env.engine, env.config, opts);
  Rng rng(seed);
  for (size_t i = 0; i < n_subs; ++i) {
    Query q = RandomQuery(&rng);
    ASSERT_EQ(oracle.TrySubscribe(q).value(), indexed.TrySubscribe(q).value());
  }
  // Long silent runs (skip consolidation) punctuated by match blocks.
  env.Mine(n_blocks, /*allow_matches=*/false, seed + 1);
  env.Mine(1, /*allow_matches=*/true, seed + 2);
  env.Mine(n_blocks, /*allow_matches=*/false, seed + 3);
  for (const auto& block : env.builder->blocks()) {
    auto a = oracle.ProcessBlockLazy(block);
    auto b = indexed.ProcessBlockLazy(block);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].query_id, b[i].query_id);
      EXPECT_EQ(BatchBytes(env.engine, a[i]), BatchBytes(env.engine, b[i]));
    }
  }
  auto fa = oracle.FlushAll();
  auto fb = indexed.FlushAll();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(BatchBytes(env.engine, fa[i]), BatchBytes(env.engine, fb[i]));
  }
}

TEST(SubMatchLazyEquivalenceTest, MockAcc2) {
  RunLazyEquivalence<accum::MockAcc2Engine>(/*seed=*/5, 16, 12);
}

TEST(SubMatchLazyEquivalenceTest, Acc2) {
  RunLazyEquivalence<accum::Acc2Engine>(/*seed=*/6, 4, 10);
}

// --- churn ------------------------------------------------------------------

TEST(SubMatchChurnTest, SubscribeUnsubscribeInterleavedWithBlocks) {
  MatchEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  SubscriptionManager<accum::MockAcc2Engine> oracle(env.engine, env.config,
                                                    opts);
  SubscriptionManager<accum::MockAcc2Engine> indexed(env.engine, env.config,
                                                     opts);
  Rng rng(77);
  std::vector<uint32_t> live;
  for (int round = 0; round < 20; ++round) {
    uint32_t n_new = rng.Below(3);
    for (uint32_t i = 0; i < n_new; ++i) {
      Query q = RandomQuery(&rng);
      auto ida = oracle.TrySubscribe(q);
      auto idb = indexed.TrySubscribe(q);
      ASSERT_TRUE(ida.ok());
      ASSERT_EQ(ida.value(), idb.value());
      live.push_back(ida.value());
    }
    while (!live.empty() && rng.Below(3) == 0) {
      size_t pick = rng.Below(live.size());
      uint32_t id = live[pick];
      live.erase(live.begin() + pick);
      oracle.Unsubscribe(id);
      indexed.Unsubscribe(id);
    }
    ASSERT_EQ(oracle.NumActive(), live.size());
    ASSERT_EQ(indexed.NumActive(), live.size());
    env.Mine(1, /*allow_matches=*/rng.Below(2) == 0, 1000 + round);
    const auto& block = env.builder->blocks().back();
    ExpectBlockEquivalent(env, oracle, indexed, block);
  }
  // Releasing every subscription empties the clause index completely.
  for (uint32_t id : live) indexed.Unsubscribe(id);
  EXPECT_EQ(indexed.clause_index().NumClauses(), 0u);
  EXPECT_EQ(indexed.clause_index().NumPostings(), 0u);
}

// --- service-level churn under appends (exercised in the TSan job) ----------

TEST(SubMatchServiceTest, SubscribeChurnDuringAppends) {
  api::ServiceOptions opts;
  opts.engine = api::EngineKind::kMockAcc2;
  opts.config.schema = NumericSchema{2, 6};
  opts.config.skiplist_size = 2;
  auto svc_or = api::Service::Open(std::move(opts));
  ASSERT_TRUE(svc_or.ok());
  auto svc = svc_or.TakeValue();

  std::atomic<bool> done{false};
  std::vector<uint32_t> ids;  // the churner's live subscriptions
  std::thread miner([&] {
    Rng rng(1);
    for (int b = 0; b < 30; ++b) {
      std::vector<chain::Object> objs;
      for (int i = 0; i < 3; ++i) {
        chain::Object o;
        o.id = static_cast<uint64_t>(b) * 8 + i;
        o.timestamp = kBaseTime + b * kStep;
        o.numeric = {rng.Below(64), rng.Below(64)};
        o.keywords = {"hit"};
        objs.push_back(std::move(o));
      }
      ASSERT_TRUE(svc->Append(std::move(objs), kBaseTime + b * kStep).ok());
    }
    done.store(true);
  });
  std::thread churner([&] {
    Rng rng(2);
    while (!done.load()) {
      Query q = RandomQuery(&rng);
      auto id = svc->Subscribe(q);
      if (id.ok()) ids.push_back(id.value());
      if (ids.size() > 4) {
        ASSERT_TRUE(svc->Unsubscribe(ids.front()).ok());
        ids.erase(ids.begin());
      }
    }
  });
  miner.join();
  churner.join();
  auto stats = svc->Stats();
  EXPECT_EQ(stats.num_blocks, 30u);
  // Every event a surviving subscriber reads carries a drained height.
  for (uint32_t id : ids) {
    auto batch = svc->EventsSince(id, /*cursor=*/0, /*max_events=*/64);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const auto& ev : batch.value().events) {
      EXPECT_EQ(ev.query_id, id);
      EXPECT_LT(ev.height, 30u);
      EXPECT_FALSE(ev.notification_bytes.empty());
    }
  }
}

}  // namespace
}  // namespace vchain::sub
