// Failure injection: an adversarial SP mutates honest responses in targeted
// ways; every mutation must be rejected by the light-node verifier
// (Definition 8.2's forgery game, played constructively).

#include <gtest/gtest.h>

#include <optional>

#include "common/rand.h"
#include "core/vchain.h"

namespace vchain::core {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::LightClient;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

template <typename Engine>
struct Env {
  explicit Env(IndexMode mode, size_t blocks = 8, uint64_t seed = 11)
      : engine(MakeEngine()), config() {
    config.mode = mode;
    config.schema = NumericSchema{1, 8};
    config.skiplist_size = 2;
    builder = std::make_unique<ChainBuilder<Engine>>(engine, config);
    Rng rng(seed);
    static const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
    uint64_t id = 0;
    for (size_t b = 0; b < blocks; ++b) {
      std::vector<Object> objs;
      for (int i = 0; i < 4; ++i) {
        Object o;
        o.id = id++;
        o.timestamp = kBaseTime + b * kTimeStep;
        o.numeric = {rng.Below(256)};
        o.keywords = {kWords[rng.Below(4)], kWords[rng.Below(4)]};
        objs.push_back(std::move(o));
      }
      auto st = builder->AppendBlock(std::move(objs),
                                     kBaseTime + b * kTimeStep);
      EXPECT_TRUE(st.ok());
    }
    EXPECT_TRUE(builder->SyncLightClient(&light).ok());
  }

  static Engine MakeEngine() {
    auto oracle = KeyOracle::Create(/*seed=*/31, AccParams{14});
    return Engine(oracle);
  }

  Query StdQuery(size_t blocks = 8) const {
    Query q;
    q.time_start = kBaseTime;
    q.time_end = kBaseTime + (blocks - 1) * kTimeStep;
    q.ranges = {{0, 20, 200}};
    q.keyword_cnf = {{"alpha", "gamma"}};
    return q;
  }

  QueryResponse<Engine> HonestResponse(const Query& q) {
    store::VectorBlockSource<Engine> source(&builder->blocks());
    QueryProcessor<Engine> sp(engine, config, &source);
    auto resp = sp.TimeWindowQuery(q);
    EXPECT_TRUE(resp.ok());
    return resp.TakeValue();
  }

  Status Verify(const Query& q, const QueryResponse<Engine>& resp) const {
    Verifier<Engine> verifier(engine, config, &light);
    return verifier.VerifyTimeWindow(q, resp);
  }

  Engine engine;
  ChainConfig config;
  std::unique_ptr<ChainBuilder<Engine>> builder;
  LightClient light;
};

// The mock engines make adversarial surgery cheap; the BN254 engines get a
// representative subset (same templated code paths).
using MockEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine>;

template <typename Engine>
class TamperTest : public ::testing::Test {};
TYPED_TEST_SUITE(TamperTest, MockEngines);

template <typename Engine>
int FindFirstBlockWithMatch(QueryResponse<Engine>* resp) {
  for (size_t s = 0; s < resp->vo.steps.size(); ++s) {
    if (!std::holds_alternative<BlockVO<Engine>>(resp->vo.steps[s])) continue;
    auto& bvo = std::get<BlockVO<Engine>>(resp->vo.steps[s]);
    for (const auto& n : bvo.nodes) {
      if (n.kind == VoKind::kMatch) return static_cast<int>(s);
    }
  }
  return -1;
}

TYPED_TEST(TamperTest, HonestResponsePassesAllModes) {
  for (IndexMode mode :
       {IndexMode::kNil, IndexMode::kIntra, IndexMode::kBoth}) {
    Env<TypeParam> env(mode);
    Query q = env.StdQuery();
    auto resp = env.HonestResponse(q);
    Status st = env.Verify(q, resp);
    EXPECT_TRUE(st.ok()) << IndexModeName(mode) << ": " << st.ToString();
  }
}

TYPED_TEST(TamperTest, DroppedResultDetected) {
  // Completeness: silently removing a matching object must fail — the VO
  // tree still references it.
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  if (resp.objects.empty()) GTEST_SKIP() << "query matched nothing";
  resp.objects.pop_back();
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, TamperedObjectDetected) {
  // Soundness: altering a returned object breaks the committed leaf hash.
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  if (resp.objects.empty()) GTEST_SKIP();
  resp.objects[0].numeric[0] = (resp.objects[0].numeric[0] + 7) % 200 + 20;
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, InjectedForeignObjectDetected) {
  // An object that never existed cannot be smuggled into the results.
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  if (resp.objects.empty()) GTEST_SKIP();
  Object fake = resp.objects[0];
  fake.id = 424242;  // matches the query but was never mined
  resp.objects[0] = fake;
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, MatchConcealedAsMismatchDetected) {
  // Turning a matching leaf into a "mismatch" requires a disjointness proof
  // the adversary cannot make; a stolen proof from another node fails too.
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  int step = FindFirstBlockWithMatch(&resp);
  if (step < 0) GTEST_SKIP();
  auto& bvo = std::get<BlockVO<TypeParam>>(resp.vo.steps[step]);
  // Find a mismatch node to steal a proof from, and a match node to conceal.
  const VoNode<TypeParam>* donor = nullptr;
  for (const auto& n : bvo.nodes) {
    if (n.kind == VoKind::kMismatch && n.proof.has_value()) donor = &n;
  }
  for (auto& n : bvo.nodes) {
    if (n.kind == VoKind::kMatch) {
      const Object& o = resp.objects[n.object_ref];
      n.kind = VoKind::kMismatch;
      n.inner_hash = o.Hash();
      n.clause_idx = 0;
      if (donor) n.proof = donor->proof;
      // The concealed object also disappears from R.
      resp.objects.erase(resp.objects.begin() + n.object_ref);
      for (auto& bstep : resp.vo.steps) {
        if (!std::holds_alternative<BlockVO<TypeParam>>(bstep)) continue;
        for (auto& m : std::get<BlockVO<TypeParam>>(bstep).nodes) {
          if (m.kind == VoKind::kMatch && m.object_ref > n.object_ref) {
            --m.object_ref;
          }
        }
      }
      break;
    }
  }
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, SwappedDigestDetected) {
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  bool mutated = false;
  for (auto& step : resp.vo.steps) {
    if (!std::holds_alternative<BlockVO<TypeParam>>(step)) continue;
    for (auto& n : std::get<BlockVO<TypeParam>>(step).nodes) {
      if (n.kind == VoKind::kMismatch) {
        n.digest = env.engine.Digest(accum::Multiset{123456789});
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  if (!mutated) GTEST_SKIP();
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, TruncatedWindowDetected) {
  // Dropping the oldest steps (claiming the walk is done early) must fail.
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  ASSERT_GT(resp.vo.steps.size(), 1u);
  resp.vo.steps.pop_back();
  // Remove result objects referenced by the dropped step to keep the
  // "unreferenced object" check from being the only failure.
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, ReorderedStepsDetected) {
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  ASSERT_GT(resp.vo.steps.size(), 1u);
  std::swap(resp.vo.steps[0], resp.vo.steps[1]);
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, OvershootingSkipDetected) {
  // A skip jumping past the window start would hide in-window blocks.
  Env<TypeParam> env(IndexMode::kBoth, /*blocks=*/12);
  Query q;  // matches nothing -> walk is all skips/mismatches
  q.time_start = kBaseTime + 6 * kTimeStep;
  q.time_end = kBaseTime + 11 * kTimeStep;
  q.keyword_cnf = {{"zeta"}};
  auto resp = env.HonestResponse(q);
  Status honest = env.Verify(q, resp);
  ASSERT_TRUE(honest.ok()) << honest.ToString();
  // Find a skip step and enlarge its claimed distance to overshoot.
  for (auto& step : resp.vo.steps) {
    if (std::holds_alternative<SkipVO<TypeParam>>(step)) {
      auto& svo = std::get<SkipVO<TypeParam>>(step);
      svo.distance *= 4;
      svo.level += 1;
      break;
    }
  }
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, SkipDigestSubstitutionDetected) {
  Env<TypeParam> env(IndexMode::kBoth, /*blocks=*/12);
  Query q;
  q.time_start = kBaseTime;
  q.time_end = kBaseTime + 11 * kTimeStep;
  q.keyword_cnf = {{"zeta"}};
  auto resp = env.HonestResponse(q);
  bool mutated = false;
  for (auto& step : resp.vo.steps) {
    if (std::holds_alternative<SkipVO<TypeParam>>(step)) {
      auto& svo = std::get<SkipVO<TypeParam>>(step);
      svo.digest = env.engine.Digest(accum::Multiset{42});
      if constexpr (TypeParam::kSupportsAggregation) {
        // keep proof absence consistent; aggregation check must now fail
      } else {
        // leave the (now wrong) proof in place
      }
      mutated = true;
      break;
    }
  }
  if (!mutated) GTEST_SKIP();
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, WrongClauseIndexDetected) {
  Env<TypeParam> env(IndexMode::kIntra);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  bool mutated = false;
  for (auto& step : resp.vo.steps) {
    if (!std::holds_alternative<BlockVO<TypeParam>>(step)) continue;
    for (auto& n : std::get<BlockVO<TypeParam>>(step).nodes) {
      if (n.kind == VoKind::kMismatch) {
        n.clause_idx = 999;  // out of range
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  if (!mutated) GTEST_SKIP();
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

TYPED_TEST(TamperTest, CorruptBytesRejectedBySerde) {
  Env<TypeParam> env(IndexMode::kBoth);
  Query q = env.StdQuery();
  auto resp = env.HonestResponse(q);
  ByteWriter w;
  SerializeResponse(env.engine, resp, &w);
  Bytes bytes = w.TakeBytes();
  // Truncations at many offsets must fail cleanly (no crash, no accept).
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    size_t cut = rng.Below(bytes.size());
    Bytes prefix(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    ByteReader r(ByteSpan(prefix.data(), prefix.size()));
    QueryResponse<TypeParam> out;
    Status st = DeserializeResponse(env.engine, &r, &out);
    if (st.ok()) {
      // Rare: cut landed exactly after a well-formed prefix; the verifier
      // must still reject it (different window coverage).
      EXPECT_FALSE(env.Verify(q, out).ok() &&
                   out.objects.size() == resp.objects.size());
    }
  }
}

// BN254 spot-checks over the same templated code paths.
TEST(TamperBn254Test, DroppedResultAndTamperedProofDetected) {
  Env<accum::Acc2Engine> env(IndexMode::kBoth, /*blocks=*/6, /*seed=*/17);
  Query q = env.StdQuery(6);
  auto resp = env.HonestResponse(q);
  Status honest = env.Verify(q, resp);
  ASSERT_TRUE(honest.ok()) << honest.ToString();
  if (!resp.objects.empty()) {
    auto dropped = resp;
    dropped.objects.pop_back();
    EXPECT_FALSE(env.Verify(q, dropped).ok());
  }
  if (!resp.vo.aggregated.empty()) {
    auto bad = resp;
    bad.vo.aggregated[0].proof =
        accum::Acc2Engine::Proof{crypto::G1Mul(crypto::Fr::FromUint64(5))
                                     .ToAffine()};
    EXPECT_FALSE(env.Verify(q, bad).ok());
  }
}

TEST(TamperBn254Test, UnreferencedAggregatedProofDetected) {
  // A VO is canonical: every aggregated proof covers a clause with
  // proof-less entries. An extra, well-formed one for a clause that needs
  // none must not ride along.
  Env<accum::Acc2Engine> env(IndexMode::kBoth, /*blocks=*/6, /*seed=*/17);
  Query q = env.StdQuery(6);
  // Every object carries one of these, so no mismatch ever cites the clause.
  q.keyword_cnf.push_back({"alpha", "beta", "gamma", "delta"});
  auto resp = env.HonestResponse(q);
  ASSERT_TRUE(env.Verify(q, resp).ok());
  const size_t num_clauses =
      TransformQuery(q, env.config.schema).clauses.size();
  std::optional<uint32_t> spare;
  for (uint32_t c = 0; c < num_clauses && !spare; ++c) {
    bool taken = false;
    for (const auto& a : resp.vo.aggregated) taken |= a.clause_idx == c;
    if (!taken) spare = c;
  }
  ASSERT_TRUE(spare.has_value()) << "every clause already aggregated";
  // The proof of the empty multiset: it verifies against any clause.
  resp.vo.aggregated.push_back({*spare, accum::Acc2Engine::Proof{}});
  Status st = env.Verify(q, resp);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("unreferenced aggregated proof"),
            std::string::npos)
      << st.ToString();
}

TEST(TamperBn254Test, Acc1ProofSwapDetected) {
  Env<accum::Acc1Engine> env(IndexMode::kIntra, /*blocks=*/4, /*seed=*/19);
  Query q = env.StdQuery(4);
  auto resp = env.HonestResponse(q);
  ASSERT_TRUE(env.Verify(q, resp).ok());
  std::vector<VoNode<accum::Acc1Engine>*> mismatches;
  for (auto& step : resp.vo.steps) {
    if (!std::holds_alternative<BlockVO<accum::Acc1Engine>>(step)) continue;
    for (auto& n : std::get<BlockVO<accum::Acc1Engine>>(step).nodes) {
      if (n.kind == VoKind::kMismatch && n.proof.has_value()) {
        mismatches.push_back(&n);
      }
    }
  }
  if (mismatches.size() < 2) GTEST_SKIP();
  // Swap two proofs between nodes with different multisets.
  std::swap(mismatches[0]->proof, mismatches[1]->proof);
  EXPECT_FALSE(env.Verify(q, resp).ok());
}

}  // namespace
}  // namespace vchain::core
