// End-to-end verifiable subscriptions: realtime notifications, lazy batches
// with skip consolidation and aggregated proofs, IP-Tree proof sharing, and
// tamper rejection.

#include "sub/subscription.h"

#include <gtest/gtest.h>

#include "common/rand.h"
#include "core/vchain.h"
#include "match_oracle.h"
#include "sub/sub_serde.h"
#include "sub/sub_verifier.h"

namespace vchain::sub {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::LightClient;
using core::ChainBuilder;
using core::Query;

constexpr uint64_t kBaseTime = 5000;
constexpr uint64_t kStep = 10;

template <typename Engine>
Engine MakeEngine(uint64_t seed = 404) {
  auto oracle = KeyOracle::Create(seed, AccParams{14});
  return Engine(oracle);
}

template <typename Engine>
struct SubEnv {
  explicit SubEnv(bool sparse_matches = false)
      : engine(MakeEngine<Engine>()), config() {
    config.mode = core::IndexMode::kBoth;
    config.schema = NumericSchema{2, 6};
    config.skiplist_size = 2;  // skips of 4 and 8
    builder = std::make_unique<ChainBuilder<Engine>>(engine, config);
    sparse = sparse_matches;
  }

  /// Mine `n` more blocks; objects in "match zone" ([0,15]^2 + "hit") appear
  /// only when allow_matches.
  void Mine(size_t n, bool allow_matches, uint64_t seed) {
    Rng rng(seed);
    static const char* kWords[] = {"red", "green", "blue", "hit"};
    for (size_t b = 0; b < n; ++b) {
      std::vector<chain::Object> objs;
      for (int i = 0; i < 3; ++i) {
        chain::Object o;
        o.id = next_id++;
        uint64_t h = builder->blocks().size();
        o.timestamp = kBaseTime + h * kStep;
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
    ASSERT_TRUE(builder->SyncLightClient(&light).ok());
  }

  Query MatchZoneQuery() const {
    Query q;
    q.ranges = {{0, 0, 15}, {1, 0, 15}};
    q.keyword_cnf = {{"hit"}};
    return q;
  }

  Engine engine;
  core::ChainConfig config;
  std::unique_ptr<ChainBuilder<Engine>> builder;
  LightClient light;
  uint64_t next_id = 0;
  bool sparse = false;
};

template <typename Engine>
class SubscriptionTest : public ::testing::Test {};

using Engines = ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine>;
TYPED_TEST_SUITE(SubscriptionTest, Engines);

TYPED_TEST(SubscriptionTest, RealtimeNotificationsVerifyAndMatchOracle) {
  SubEnv<TypeParam> env;
  typename SubscriptionManager<TypeParam>::Options opts;
  SubscriptionManager<TypeParam> mgr(env.engine, env.config, opts);
  uint32_t qid = mgr.TrySubscribe(env.MatchZoneQuery()).TakeValue();
  // A broad keyword-only query too.
  Query kw;
  kw.keyword_cnf = {{"red", "blue"}};
  uint32_t qid2 = mgr.TrySubscribe(kw).TakeValue();

  env.Mine(6, /*allow_matches=*/true, /*seed=*/1);
  SubVerifier<TypeParam> verifier(env.engine, env.config, &env.light);

  size_t total_matches = 0;
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    ASSERT_EQ(notifs.size(), 2u);
    for (const auto& n : notifs) {
      const Query& q = n.query_id == qid ? mgr.ip_tree().QueryOf(qid)
                                         : mgr.ip_tree().QueryOf(qid2);
      Status st = verifier.VerifyNotification(q, n);
      EXPECT_TRUE(st.ok()) << st.ToString();
      // Oracle comparison: every true match must be returned (completeness);
      // extras are possible only as mapped-universe collisions, which the
      // client filters locally with LocalMatch.
      std::vector<uint64_t> got;
      for (const chain::Object& o : n.objects) got.push_back(o.id);
      for (const chain::Object& o : block.objects) {
        if (core::LocalMatch(o, q, env.config.schema)) {
          EXPECT_NE(std::find(got.begin(), got.end(), o.id), got.end());
        }
      }
      size_t true_matches = 0;
      for (const chain::Object& o : n.objects) {
        if (core::LocalMatch(o, q, env.config.schema)) ++true_matches;
      }
      if (n.query_id == qid) total_matches += true_matches;
    }
  }
  EXPECT_GT(total_matches, 0u);
}

TYPED_TEST(SubscriptionTest, RangeOnlyQueryUsesCellExclusions) {
  SubEnv<TypeParam> env;
  typename SubscriptionManager<TypeParam>::Options opts;
  opts.prefer_cell_exclusions = true;
  SubscriptionManager<TypeParam> mgr(env.engine, env.config, opts);
  Query range_only;
  range_only.ranges = {{0, 0, 15}, {1, 0, 15}};
  uint32_t qid = mgr.TrySubscribe(range_only).TakeValue();
  (void)qid;

  env.Mine(4, /*allow_matches=*/false, /*seed=*/2);  // all objects outside
  SubVerifier<TypeParam> verifier(env.engine, env.config, &env.light);
  bool saw_cell_exclusion = false;
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    ASSERT_EQ(notifs.size(), 1u);
    EXPECT_TRUE(notifs[0].objects.empty());
    Status st = verifier.VerifyNotification(range_only, notifs[0]);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (const auto& node : notifs[0].nodes) {
      for (const auto& ex : node.exclusions) {
        if (ex.is_cell) saw_cell_exclusion = true;
      }
    }
  }
  EXPECT_TRUE(saw_cell_exclusion);
}

TYPED_TEST(SubscriptionTest, NotificationSerdeRoundTrip) {
  SubEnv<TypeParam> env;
  typename SubscriptionManager<TypeParam>::Options opts;
  SubscriptionManager<TypeParam> mgr(env.engine, env.config, opts);
  Query q = env.MatchZoneQuery();
  ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  env.Mine(3, true, 3);
  SubVerifier<TypeParam> verifier(env.engine, env.config, &env.light);
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    ByteWriter w;
    SerializeSubNotification(env.engine, notifs[0], &w);
    ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
    SubNotification<TypeParam> back;
    ASSERT_TRUE(DeserializeSubNotification(env.engine, &r, &back).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(verifier.VerifyNotification(q, back).ok());
  }
}

TYPED_TEST(SubscriptionTest, TamperedNotificationRejected) {
  SubEnv<TypeParam> env;
  typename SubscriptionManager<TypeParam>::Options opts;
  SubscriptionManager<TypeParam> mgr(env.engine, env.config, opts);
  Query q = env.MatchZoneQuery();
  ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  env.Mine(4, true, 4);
  SubVerifier<TypeParam> verifier(env.engine, env.config, &env.light);
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    auto& n = notifs[0];
    if (n.objects.empty()) continue;
    // Hide a match: drop the object and rewrite its node as a mismatch with
    // a stolen exclusion.
    SubNotification<TypeParam> evil = n;
    const SubExclusion<TypeParam>* donor = nullptr;
    for (const auto& node : evil.nodes) {
      if (node.kind == core::VoKind::kMismatch && !node.exclusions.empty()) {
        donor = &node.exclusions[0];
      }
    }
    if (donor == nullptr) continue;
    for (auto& node : evil.nodes) {
      if (node.kind == core::VoKind::kMatch) {
        const chain::Object& o = evil.objects[node.object_ref];
        node.kind = core::VoKind::kMismatch;
        node.inner_hash = o.Hash();
        node.exclusions.push_back(*donor);
        evil.objects.erase(evil.objects.begin() + node.object_ref);
        break;
      }
    }
    EXPECT_FALSE(verifier.VerifyNotification(q, evil).ok());
    return;
  }
  GTEST_SKIP() << "no match produced";
}

TEST(LazySubscriptionTest, SilentRunFlushesWithAggregatedProof) {
  SubEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  opts.lazy = true;
  SubscriptionManager<accum::MockAcc2Engine> mgr(env.engine, env.config, opts);
  Query q = env.MatchZoneQuery();
  uint32_t qid = mgr.TrySubscribe(q).TakeValue();
  (void)qid;

  // 10 silent blocks, then one matching block.
  env.Mine(10, /*allow_matches=*/false, /*seed=*/5);
  env.Mine(1, /*allow_matches=*/true, /*seed=*/6);

  SubVerifier<accum::MockAcc2Engine> verifier(env.engine, env.config,
                                              &env.light);
  uint64_t owed = 0;
  size_t batches = 0;
  bool saw_skip_unit = false, saw_match = false;
  for (const auto& block : env.builder->blocks()) {
    auto out = mgr.ProcessBlockLazy(block);
    for (const auto& batch : out) {
      ++batches;
      uint64_t next = 0;
      Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
      ASSERT_TRUE(st.ok()) << st.ToString();
      owed = next;
      for (const auto& unit : batch.units) {
        if (std::holds_alternative<
                LazyBatch<accum::MockAcc2Engine>::SkipUnit>(unit)) {
          saw_skip_unit = true;
        }
      }
      if (batch.match.has_value()) {
        saw_match = true;
        EXPECT_FALSE(batch.match->objects.empty());
      }
    }
  }
  auto leftovers = mgr.FlushAll();
  for (const auto& batch : leftovers) {
    uint64_t next = 0;
    Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
    ASSERT_TRUE(st.ok()) << st.ToString();
    owed = next;
  }
  EXPECT_EQ(owed, env.builder->blocks().size());  // every height accounted
  EXPECT_GT(batches, 0u);
  EXPECT_TRUE(saw_match);
  EXPECT_TRUE(saw_skip_unit);  // the 10-block run must use a skip
}

TEST(LazySubscriptionTest, TamperedBatchRejected) {
  SubEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  opts.lazy = true;
  SubscriptionManager<accum::MockAcc2Engine> mgr(env.engine, env.config, opts);
  Query q = env.MatchZoneQuery();
  ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  env.Mine(5, false, 7);
  for (const auto& block : env.builder->blocks()) {
    auto out = mgr.ProcessBlockLazy(block);
    EXPECT_TRUE(out.empty());  // silent: nothing published yet
  }
  auto batches = mgr.FlushAll();
  ASSERT_EQ(batches.size(), 1u);
  SubVerifier<accum::MockAcc2Engine> verifier(env.engine, env.config,
                                              &env.light);
  uint64_t next = 0;
  ASSERT_TRUE(verifier.VerifyLazyBatch(q, batches[0], 0, &next).ok());
  EXPECT_EQ(next, 5u);

  // (a) Drop a unit: gap detected.
  auto missing = batches[0];
  missing.units.erase(missing.units.begin());
  EXPECT_FALSE(verifier.VerifyLazyBatch(q, missing, 0, &next).ok());
  // (b) Wrong starting height.
  EXPECT_FALSE(verifier.VerifyLazyBatch(q, batches[0], 1, &next).ok());
  // (c) Corrupt the aggregated proof.
  auto bad_proof = batches[0];
  bad_proof.agg_proof->pi = crypto::Fr::FromUint64(1234567);
  EXPECT_FALSE(verifier.VerifyLazyBatch(q, bad_proof, 0, &next).ok());
  // (d) Swap a unit digest.
  auto bad_digest = batches[0];
  for (auto& unit : bad_digest.units) {
    if (std::holds_alternative<LazyBatch<accum::MockAcc2Engine>::BlockUnit>(
            unit)) {
      std::get<LazyBatch<accum::MockAcc2Engine>::BlockUnit>(unit).digest =
          env.engine.Digest(accum::Multiset{99});
      break;
    }
  }
  EXPECT_FALSE(verifier.VerifyLazyBatch(q, bad_digest, 0, &next).ok());
  // (e) Serde smoke: batch serializes without error.
  EXPECT_GT(LazyBatchByteSize(env.engine, batches[0]), 0u);
}

TEST(LazySubscriptionTest, FlatChainRejected) {
  // Lazy units authenticate blocks through the intra-block index root, which
  // a kNil chain does not build: registration must refuse, not crash later.
  SubEnv<accum::MockAcc2Engine> env;
  core::ChainConfig flat = env.config;
  flat.mode = core::IndexMode::kNil;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  opts.lazy = true;
  SubscriptionManager<accum::MockAcc2Engine> mgr(env.engine, flat, opts);
  Query q = env.MatchZoneQuery();
  auto id = mgr.TrySubscribe(q);
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsInvalidArgument()) << id.status().ToString();

  SubscriptionSnapshot<accum::MockAcc2Engine> snap;
  snap.next_query_id = 1;
  snap.queries.push_back({0, q});
  Status st = mgr.Restore(snap);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(mgr.NumActive(), 0u);

  // The same options over the indexed chain register normally.
  SubscriptionManager<accum::MockAcc2Engine> indexed(env.engine, env.config,
                                                     opts);
  EXPECT_TRUE(indexed.TrySubscribe(q).ok());
}

TEST(SharedProofTest, IpTreeModeSharesProofsAcrossQueries) {
  SubEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options ip_opts;
  ip_opts.use_ip_tree = true;
  // The per-query oracle walks every query independently, so cross-query
  // sharing shows up as proof-cache hits (the manager's own matcher shares
  // upstream of the cache — covered by the test below).
  SubscriptionManager<accum::MockAcc2Engine> mgr(env.engine, env.config,
                                                 ip_opts);
  // Many subscriptions sharing the same clause.
  Query q;
  q.keyword_cnf = {{"nosuchword"}};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  env.Mine(3, false, 8);
  for (const auto& block : env.builder->blocks()) {
    OracleProcessBlock(mgr, block);
  }
  const auto& stats = mgr.cache_stats();
  // 8 identical queries: all but the first hit the shared cache.
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(SharedProofTest, IndexedMatcherSharesWorkUpstreamOfCache) {
  SubEnv<accum::MockAcc2Engine> env;
  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  SubscriptionManager<accum::MockAcc2Engine> mgr(env.engine, env.config, opts);
  Query q;
  q.keyword_cnf = {{"nosuchword"}};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  // 8 identical subscriptions intern one clause.
  EXPECT_EQ(mgr.clause_index().NumClauses(), 1u);
  env.Mine(3, false, 8);
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    EXPECT_EQ(notifs.size(), 8u);
  }
  // Grouped dispatch proves each (digest, clause) pair exactly once — the
  // cache never even sees the 7 duplicate probes the per-query oracle makes.
  const auto& stats = mgr.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);  // one root-mismatch proof per block
}

TEST(SubscriptionBn254Test, RealtimeAndLazyEndToEnd) {
  SubEnv<accum::Acc2Engine> env;
  typename SubscriptionManager<accum::Acc2Engine>::Options opts;
  SubscriptionManager<accum::Acc2Engine> mgr(env.engine, env.config, opts);
  Query q = env.MatchZoneQuery();
  ASSERT_TRUE(mgr.TrySubscribe(q).ok());
  env.Mine(3, true, 9);
  SubVerifier<accum::Acc2Engine> verifier(env.engine, env.config, &env.light);
  for (const auto& block : env.builder->blocks()) {
    auto notifs = mgr.ProcessBlock(block);
    Status st = verifier.VerifyNotification(q, notifs[0]);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  typename SubscriptionManager<accum::Acc2Engine>::Options lazy_opts;
  lazy_opts.lazy = true;
  SubscriptionManager<accum::Acc2Engine> lazy_mgr(env.engine, env.config,
                                                  lazy_opts);
  ASSERT_TRUE(lazy_mgr.TrySubscribe(q).ok());
  uint64_t owed = 0;
  for (const auto& block : env.builder->blocks()) {
    for (const auto& batch : lazy_mgr.ProcessBlockLazy(block)) {
      uint64_t next = 0;
      Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
      EXPECT_TRUE(st.ok()) << st.ToString();
      owed = next;
    }
  }
  for (const auto& batch : lazy_mgr.FlushAll()) {
    uint64_t next = 0;
    Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
    EXPECT_TRUE(st.ok()) << st.ToString();
    owed = next;
  }
  EXPECT_EQ(owed, env.builder->blocks().size());
}

}  // namespace
}  // namespace vchain::sub
