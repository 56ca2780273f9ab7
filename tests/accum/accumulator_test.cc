// Accumulator engine correctness — typed across all four engines
// (acc1/acc2 x BN254/mock), plus acc2-specific aggregation, batched
// verification against per-check verdicts, the unforgeability game from
// Definition 8.1 played with tampered proofs, and the key oracle's batched
// powers against one-at-a-time test oracles.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "accum/acc1.h"
#include "accum/acc2.h"
#include "accum/engine.h"
#include "accum/mock.h"
#include "common/rand.h"
#include "crypto/pairing.h"

namespace vchain::accum {
namespace {

static_assert(AccumulatorEngine<Acc1Engine>);
static_assert(AccumulatorEngine<Acc2Engine>);
static_assert(AccumulatorEngine<MockAcc1Engine>);
static_assert(AccumulatorEngine<MockAcc2Engine>);

AccParams SmallParams() {
  AccParams p;
  p.universe_bits = 12;  // tiny universe keeps test key material cheap
  return p;
}

template <typename Engine>
Engine MakeEngine();

template <>
Acc1Engine MakeEngine<Acc1Engine>() {
  return Acc1Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
Acc2Engine MakeEngine<Acc2Engine>() {
  return Acc2Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
MockAcc1Engine MakeEngine<MockAcc1Engine>() {
  return MockAcc1Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
MockAcc2Engine MakeEngine<MockAcc2Engine>() {
  return MockAcc2Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}

template <typename Engine>
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(MakeEngine<Engine>()) {}
  Engine engine_;
};

using AllEngines =
    ::testing::Types<Acc1Engine, Acc2Engine, MockAcc1Engine, MockAcc2Engine>;
TYPED_TEST_SUITE(EngineTest, AllEngines);

TYPED_TEST(EngineTest, DisjointProofVerifies) {
  Multiset w{10, 20, 30};
  Multiset clause{40, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(this->engine_.VerifyDisjoint(this->engine_.Digest(w),
                                           this->engine_.QueryDigestOf(clause),
                                           proof.value()));
}

TYPED_TEST(EngineTest, IntersectingSetsRefuseProof) {
  Multiset w{10, 20, 30};
  Multiset clause{30, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  EXPECT_FALSE(proof.ok());
}

TYPED_TEST(EngineTest, ProofDoesNotVerifyAgainstWrongDigest) {
  Multiset w{10, 20, 30};
  Multiset other{11, 21};
  Multiset clause{40, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(other), this->engine_.QueryDigestOf(clause),
      proof.value()));
}

TYPED_TEST(EngineTest, ProofDoesNotVerifyAgainstWrongClause) {
  Multiset w{10, 20, 30};
  Multiset clause{40, 50};
  Multiset other_clause{60};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(w), this->engine_.QueryDigestOf(other_clause),
      proof.value()));
}

TYPED_TEST(EngineTest, DigestDeterministic) {
  Multiset w{1, 2, 3, 3};
  EXPECT_EQ(this->engine_.Digest(w), this->engine_.Digest(w));
  Multiset w2{1, 2};
  EXPECT_FALSE(this->engine_.Digest(w) == this->engine_.Digest(w2));
}

TYPED_TEST(EngineTest, MultiplicityChangesDigest) {
  Multiset once{7};
  Multiset twice;
  twice.Add(7, 2);
  EXPECT_FALSE(this->engine_.Digest(once) == this->engine_.Digest(twice));
}

TYPED_TEST(EngineTest, MultisetWithMultiplicityStillProvable) {
  Multiset w;
  w.Add(10, 3);
  w.Add(20, 2);
  Multiset clause{40};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(this->engine_.VerifyDisjoint(this->engine_.Digest(w),
                                           this->engine_.QueryDigestOf(clause),
                                           proof.value()));
}

TYPED_TEST(EngineTest, DigestSerdeRoundTrip) {
  Multiset w{5, 6, 7};
  auto d = this->engine_.Digest(w);
  ByteWriter bw;
  this->engine_.SerializeDigest(d, &bw);
  EXPECT_EQ(bw.size(), this->engine_.DigestByteSize());
  ByteReader br(ByteSpan(bw.bytes().data(), bw.bytes().size()));
  decltype(d) back;
  ASSERT_TRUE(this->engine_.DeserializeDigest(&br, &back).ok());
  EXPECT_EQ(back, d);
}

TYPED_TEST(EngineTest, ProofSerdeRoundTrip) {
  Multiset w{5, 6, 7};
  Multiset clause{9};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  ByteWriter bw;
  this->engine_.SerializeProof(proof.value(), &bw);
  EXPECT_EQ(bw.size(), this->engine_.ProofByteSize());
  ByteReader br(ByteSpan(bw.bytes().data(), bw.bytes().size()));
  typename TypeParam::Proof back;
  ASSERT_TRUE(this->engine_.DeserializeProof(&br, &back).ok());
  EXPECT_TRUE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(w), this->engine_.QueryDigestOf(clause), back));
}

TYPED_TEST(EngineTest, RandomizedDisjointSweep) {
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    Multiset w, clause;
    // Disjoint by construction: distinct ranges (mapped ids stay distinct in
    // the 12-bit universe because raw ids are < 2^12 - 1 here).
    int nw = static_cast<int>(rng.Range(1, 12));
    int nc = static_cast<int>(rng.Range(1, 4));
    for (int i = 0; i < nw; ++i) w.Add(rng.Range(1, 1000), rng.Range(1, 3));
    for (int i = 0; i < nc; ++i) clause.Add(rng.Range(1001, 2000));
    auto proof = this->engine_.ProveDisjoint(w, clause);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(this->engine_.VerifyDisjoint(
        this->engine_.Digest(w), this->engine_.QueryDigestOf(clause),
        proof.value()));
  }
}

// --- batched verification (VerifyDisjointAll) -------------------------------

/// `p` moved off its honest value by the generator of its group.
Acc1Engine::Proof Shifted(const Acc1Engine::Proof& p) {
  return {crypto::G2::FromAffine(p.f1).AddAffine(crypto::G2Generator())
              .ToAffine(),
          p.f2};
}
Acc2Engine::Proof Shifted(const Acc2Engine::Proof& p) {
  return {crypto::G1::FromAffine(p.pi).AddAffine(crypto::G1Generator())
              .ToAffine()};
}
MockAcc1Engine::Proof Shifted(const MockAcc1Engine::Proof& p) {
  return {p.f1 + Fr::One(), p.f2};
}
MockAcc2Engine::Proof Shifted(const MockAcc2Engine::Proof& p) {
  return {p.pi + Fr::One()};
}

/// `k` honest checks over random disjoint multisets; about half reuse an
/// earlier check's clause. `foreign[i]` is an honest proof for another
/// multiset against check i's clause.
template <typename Engine>
struct CheckList {
  std::vector<DisjointCheck<Engine>> checks;
  std::vector<typename Engine::Proof> foreign;
};

template <typename Engine>
CheckList<Engine> HonestChecks(const Engine& engine, Rng* rng, size_t k) {
  // Disjoint by construction: objects draw ids from [1, 1000], clauses from
  // [1001, 2000] (distinct mapped ids in the 12-bit universe).
  auto random_set = [rng](uint64_t lo, uint64_t hi, uint64_t max_size) {
    Multiset m;
    uint64_t n = rng->Range(1, max_size);
    for (uint64_t i = 0; i < n; ++i) {
      m.Add(rng->Range(lo, hi), static_cast<uint32_t>(rng->Range(1, 2)));
    }
    return m;
  };
  std::vector<Multiset> clauses;
  CheckList<Engine> out;
  for (size_t i = 0; i < k; ++i) {
    if (clauses.empty() || rng->Below(2) == 0) {
      clauses.push_back(random_set(1001, 2000, 3));
    }
    const Multiset& clause = clauses[rng->Below(clauses.size())];
    Multiset w = random_set(1, 1000, 6);
    auto proof = engine.ProveDisjoint(w, clause);
    auto foreign = engine.ProveDisjoint(random_set(1, 1000, 6), clause);
    EXPECT_TRUE(proof.ok() && foreign.ok());
    out.checks.push_back(
        {engine.Digest(w), engine.QueryDigestOf(clause), proof.value()});
    out.foreign.push_back(foreign.value());
  }
  return out;
}

TYPED_TEST(EngineTest, VerifyDisjointAllIsTheAndOfEachCheck) {
  const TypeParam& engine = this->engine_;
  Rng rng(23);
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                   size_t{8}}) {
    CheckList<TypeParam> list = HonestChecks(engine, &rng, k);
    for (const DisjointCheck<TypeParam>& c : list.checks) {
      ASSERT_TRUE(engine.VerifyDisjoint(c.digest, c.clause, c.proof));
    }
    EXPECT_TRUE(engine.VerifyDisjointAll(list.checks)) << "k=" << k;
    // Every other check stays honest, so the AND of the per-check verdicts
    // is the corrupted check's own verdict.
    for (size_t pos = 0; pos < k; ++pos) {
      const typename TypeParam::Proof honest = list.checks[pos].proof;
      const typename TypeParam::Proof corruptions[] = {
          list.foreign[pos], Shifted(honest), typename TypeParam::Proof{}};
      for (size_t v = 0; v < std::size(corruptions); ++v) {
        std::vector<DisjointCheck<TypeParam>> bad = list.checks;
        bad[pos].proof = corruptions[v];
        const bool each = engine.VerifyDisjoint(bad[pos].digest,
                                                bad[pos].clause,
                                                bad[pos].proof);
        EXPECT_FALSE(each) << "k=" << k << " pos=" << pos << " v=" << v;
        EXPECT_EQ(engine.VerifyDisjointAll(bad), each)
            << "k=" << k << " pos=" << pos << " v=" << v;
      }
    }
  }
}

TEST(Acc2BatchTest, ShiftedProofPairIsRejected) {
  // pi_1 + X and pi_2 - X leave the sum of the proofs unchanged, so the
  // unweighted product of the two checks still reads one; the weights must
  // tell the pair apart.
  Acc2Engine engine = MakeEngine<Acc2Engine>();
  Rng rng(29);
  CheckList<Acc2Engine> list = HonestChecks(engine, &rng, 2);
  const crypto::G1 x = crypto::G1Mul(Fr::FromUint64(987654321));
  std::vector<DisjointCheck<Acc2Engine>> bad = list.checks;
  bad[0].proof.pi = crypto::G1::FromAffine(bad[0].proof.pi).Add(x).ToAffine();
  bad[1].proof.pi =
      crypto::G1::FromAffine(bad[1].proof.pi).Add(x.Neg()).ToAffine();

  crypto::G1 proof_sum = crypto::G1::FromAffine(bad[0].proof.pi)
                             .AddAffine(bad[1].proof.pi);
  ASSERT_TRUE(crypto::PairingProductIsOne(
      {{bad[0].digest.point, bad[0].clause.point},
       {bad[1].digest.point, bad[1].clause.point},
       {proof_sum.ToAffine().Neg(), crypto::G2Generator()}}));
  EXPECT_FALSE(engine.VerifyDisjoint(bad[0].digest, bad[0].clause,
                                     bad[0].proof));
  EXPECT_FALSE(engine.VerifyDisjointAll(bad));
  EXPECT_TRUE(engine.VerifyDisjointAll(list.checks));
}

TEST(Acc2BatchTest, WeightsAreOddDeterministicAndBindTheList) {
  Acc2Engine engine = MakeEngine<Acc2Engine>();
  Rng rng(31);
  CheckList<Acc2Engine> list = HonestChecks(engine, &rng, 4);
  std::vector<crypto::U256> w = Acc2Engine::BatchWeights(list.checks);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], crypto::U256(1));
  for (const crypto::U256& r : w) {
    EXPECT_TRUE(r.IsOdd());
    EXPECT_LE(r.BitLength(), 128);
  }
  EXPECT_EQ(Acc2Engine::BatchWeights(list.checks), w);
  std::vector<DisjointCheck<Acc2Engine>> other = list.checks;
  other[3].proof = list.foreign[3];
  std::vector<crypto::U256> w2 = Acc2Engine::BatchWeights(other);
  EXPECT_EQ(w2[0], w[0]);
  EXPECT_NE(w2[1], w[1]);
  EXPECT_TRUE(Acc2Engine::BatchWeights({}).empty());
}

// --- acc2-only aggregation (paper §6.3) -------------------------------------

template <typename Engine>
class AggregationTest : public ::testing::Test {
 protected:
  AggregationTest() : engine_(MakeEngine<Engine>()) {}
  Engine engine_;
};

using AggEngines = ::testing::Types<Acc2Engine, MockAcc2Engine>;
TYPED_TEST_SUITE(AggregationTest, AggEngines);

TYPED_TEST(AggregationTest, SumDigestsEqualsDigestOfSum) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset c{9};
  auto sum = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b),
       this->engine_.Digest(c)});
  EXPECT_EQ(sum, this->engine_.Digest(a.SumWith(b).SumWith(c)));
}

TYPED_TEST(AggregationTest, ProofSumVerifiesAgainstSummedDigest) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset clause{100, 200};
  auto pa = this->engine_.ProveDisjoint(a, clause);
  auto pb = this->engine_.ProveDisjoint(b, clause);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  auto agg_proof = this->engine_.SumProofs({pa.value(), pb.value()});
  auto agg_digest = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b)});
  EXPECT_TRUE(this->engine_.VerifyDisjoint(
      agg_digest, this->engine_.QueryDigestOf(clause), agg_proof));
}

TYPED_TEST(AggregationTest, AggregatedProofRejectsForeignDigest) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset clause{100, 200};
  auto pa = this->engine_.ProveDisjoint(a, clause);
  ASSERT_TRUE(pa.ok());
  auto agg_digest = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b)});
  // Proof covering only `a` must not verify for the digest of a+b.
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      agg_digest, this->engine_.QueryDigestOf(clause), pa.value()));
}

// --- unforgeability spot-checks (Definition 8.1 adversary) ------------------

TEST(UnforgeabilityTest, Acc1TamperedProofRejected) {
  Acc1Engine engine = MakeEngine<Acc1Engine>();
  Multiset w{10, 20};
  Multiset clause{30};
  auto proof = engine.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  Acc1Engine::Proof bad = proof.value();
  bad.f1 = crypto::G2Mul(Fr::FromUint64(12345)).ToAffine();
  EXPECT_FALSE(
      engine.VerifyDisjoint(engine.Digest(w), engine.QueryDigestOf(clause), bad));
}

TEST(UnforgeabilityTest, Acc2ProofForIntersectingSetsFailsVerification) {
  // Even if an adversary hands us a "proof" computed as A*B for
  // intersecting multisets via the trusted path, verification against the
  // honest digests of *different* claimed sets must fail.
  auto oracle = KeyOracle::Create(/*seed=*/77, SmallParams());
  Acc2Engine engine(oracle);
  Multiset w{10, 20, 30};
  Multiset clause{40};
  // Forge: proof for (w', clause) with w' != w.
  Multiset w_prime{11, 21};
  Acc2Engine trusted(oracle, ProverMode::kTrustedFast);
  auto forged = trusted.ProveDisjoint(w_prime, clause);
  ASSERT_TRUE(forged.ok());
  EXPECT_FALSE(engine.VerifyDisjoint(engine.Digest(w),
                                     engine.QueryDigestOf(clause),
                                     forged.value()));
}

// --- trusted fast path must be byte-identical --------------------------------

TEST(ProverModeTest, Acc1FastDigestMatchesHonest) {
  auto oracle = KeyOracle::Create(/*seed=*/123, SmallParams());
  Acc1Engine honest(oracle, ProverMode::kHonest);
  Acc1Engine fast(oracle, ProverMode::kTrustedFast);
  Multiset w;
  Rng rng(5);
  for (int i = 0; i < 9; ++i) w.Add(rng.Next(), rng.Range(1, 3));
  EXPECT_EQ(honest.Digest(w), fast.Digest(w));
  Multiset clause{123, 456};
  auto ph = honest.ProveDisjoint(w, clause);
  auto pf = fast.ProveDisjoint(w, clause);
  ASSERT_TRUE(ph.ok());
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ(ph.value(), pf.value());
}

TEST(ProverModeTest, Acc2FastDigestMatchesHonest) {
  auto oracle = KeyOracle::Create(/*seed=*/123, SmallParams());
  Acc2Engine honest(oracle, ProverMode::kHonest);
  Acc2Engine fast(oracle, ProverMode::kTrustedFast);
  Multiset w;
  Rng rng(6);
  for (int i = 0; i < 9; ++i) w.Add(rng.Next(), rng.Range(1, 3));
  EXPECT_EQ(honest.Digest(w), fast.Digest(w));
  Multiset clause{EncodeKeyword("a"), EncodeKeyword("b")};
  auto ph = honest.ProveDisjoint(w, clause);
  auto pf = fast.ProveDisjoint(w, clause);
  if (ph.ok() && pf.ok()) {
    EXPECT_EQ(ph.value(), pf.value());
  } else {
    // Mapped collision between w and clause: both paths must agree.
    EXPECT_EQ(ph.ok(), pf.ok());
  }
}

TEST(MappedIntersectsTest, UsesEngineMapping) {
  auto oracle = KeyOracle::Create(/*seed=*/1, SmallParams());
  Acc2Engine acc2(oracle);
  uint64_t q = oracle->params().UniverseSize();
  // Two raw ids that collide mod (q-1).
  Element a = 5;
  Element b = 5 + (q - 1);
  EXPECT_EQ(acc2.MapElement(a), acc2.MapElement(b));
  Multiset w{a};
  Multiset clause{b};
  EXPECT_TRUE(MappedIntersects(acc2, w, clause));
  EXPECT_FALSE(w.Intersects(clause));
  // acc1 maps identically, so no collision there.
  Acc1Engine acc1(oracle);
  EXPECT_FALSE(MappedIntersects(acc1, w, clause));
}

TEST(KeyOracleTest, PowersAreConsistent) {
  auto oracle = KeyOracle::Create(/*seed=*/9, SmallParams());
  // g^{s^j} must equal commit(s^j) for dense and sparse paths.
  oracle->WarmupG1(8);
  for (uint64_t j : {0ULL, 1ULL, 5ULL, 8ULL, 1000ULL}) {
    crypto::G1Affine p = oracle->G1PowerOf(j);
    crypto::G1Affine expect = oracle->CommitG1(oracle->SecretPow(j)).ToAffine();
    EXPECT_EQ(p, expect) << "j=" << j;
  }
  for (uint64_t j : {0ULL, 3ULL, 700ULL}) {
    crypto::G2Affine p = oracle->G2PowerOf(j);
    crypto::G2Affine expect = oracle->CommitG2(oracle->SecretPow(j)).ToAffine();
    EXPECT_EQ(p, expect) << "j=" << j;
  }
}

TEST(KeyOracleTest, FixedBaseMatchesScalarMul) {
  auto oracle = KeyOracle::Create(/*seed=*/10, SmallParams());
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    Fr k = Fr::FromU256Reduce(
        crypto::U256(rng.Next(), rng.Next(), rng.Next(), 0));
    EXPECT_TRUE(oracle->CommitG1(k).Equal(crypto::G1Mul(k)));
  }
}

TEST(KeyOracleTest, FixedBaseMatchesScalarMulG2) {
  auto oracle = KeyOracle::Create(/*seed=*/12, SmallParams());
  Rng rng(13);
  for (int i = 0; i < 4; ++i) {
    Fr k = Fr::FromU256Reduce(
        crypto::U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()));
    EXPECT_TRUE(oracle->CommitG2(k).Equal(crypto::G2Mul(k)));
  }
}

// Test oracles: the one-power-at-a-time code the batched paths replaced.
namespace ref {

crypto::G1Affine G1Power(const KeyOracle& oracle, uint64_t j) {
  return oracle.CommitG1(oracle.SecretPow(j)).ToAffine();
}

/// Acc2Engine::ProveDisjoint's honest path with per-term power derivation.
Acc2Engine::Proof ProveDisjoint(const Acc2Engine& engine, const Multiset& w,
                                const Multiset& clause) {
  auto map = [&](const Multiset& m) {
    Multiset out;
    for (const Multiset::Entry& e : m.entries()) {
      out.Add(engine.MapElement(e.element), e.count);
    }
    return out;
  };
  Multiset mw = map(w);
  Multiset mc = map(clause);
  const uint64_t q = engine.oracle()->params().UniverseSize();
  std::vector<crypto::G1Affine> bases;
  std::vector<crypto::U256> scalars;
  for (const Multiset::Entry& ew : mw.entries()) {
    for (const Multiset::Entry& ec : mc.entries()) {
      bases.push_back(G1Power(*engine.oracle(), ew.element + q - ec.element));
      scalars.push_back(
          crypto::U256(static_cast<uint64_t>(ew.count) * ec.count));
    }
  }
  return Acc2Engine::Proof{crypto::MultiScalarMul(bases, scalars).ToAffine()};
}

}  // namespace ref

TEST(KeyOracleTest, BatchPowersMatchOneAtATime) {
  auto oracle = KeyOracle::Create(/*seed=*/14, SmallParams());
  const size_t chunk = KeyOracle::kPowerChunk;
  Rng rng(15);
  for (size_t n : {size_t{0}, size_t{1}, chunk - 1, chunk, chunk + 1,
                   4 * chunk + 3}) {
    std::vector<uint64_t> exponents;
    for (size_t i = 0; i < n; ++i) {
      // Every third exponent repeats an earlier one (or is 0/1 edge cases).
      if (i % 3 == 2) {
        exponents.push_back(exponents[rng.Below(i)]);
      } else {
        exponents.push_back(i < 2 ? i : rng.Below(2 * 4096));
      }
    }
    std::vector<crypto::G1Affine> got = oracle->G1Powers(exponents);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], ref::G1Power(*oracle, exponents[i]))
          << "n=" << n << " i=" << i << " j=" << exponents[i];
    }
  }
}

/// A seeded multiset of `distinct` ids with multiplicities in [1, 3], every
/// mapped id outside `avoid` (mapped ids) and added to it.
Multiset RandomMappedDisjoint(const Acc2Engine& engine, Rng* rng,
                              size_t distinct, std::set<uint64_t>* avoid) {
  Multiset out;
  while (out.DistinctSize() < distinct) {
    uint64_t id = rng->Next();
    if (!avoid->insert(engine.MapElement(id)).second) continue;
    out.Add(id, static_cast<uint32_t>(1 + rng->Below(3)));
  }
  return out;
}

TEST(Acc2ProveTest, BatchedProofEqualsPerTermOracle) {
  Acc2Engine engine(KeyOracle::Create(/*seed=*/16, SmallParams()));
  Rng rng(17);
  for (int round = 0; round < 12; ++round) {
    std::set<uint64_t> used;
    const size_t clause_size = 1 + static_cast<size_t>(round % 6);
    Multiset clause = RandomMappedDisjoint(engine, &rng, clause_size, &used);
    Multiset w = RandomMappedDisjoint(
        engine, &rng, 1 + static_cast<size_t>(rng.Below(12)), &used);
    auto proof = engine.ProveDisjoint(w, clause);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_EQ(proof.value(), ref::ProveDisjoint(engine, w, clause))
        << "round " << round;
    EXPECT_TRUE(engine.VerifyDisjoint(engine.Digest(w),
                                      engine.QueryDigestOf(clause),
                                      proof.value()));
  }
}

// Many provers at once share ThreadPool::Shared(): each ProveDisjoint's
// chunked power batch nests under the others and still yields the serial
// oracle's bits.
TEST(Acc2ProveTest, ConcurrentProversAreBitIdentical) {
  Acc2Engine engine(KeyOracle::Create(/*seed=*/18, SmallParams()));
  Rng rng(19);
  struct Case {
    Multiset w, clause;
    Acc2Engine::Proof expect;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 4; ++i) {
    std::set<uint64_t> used;
    Case c;
    c.clause = RandomMappedDisjoint(engine, &rng, 3, &used);
    c.w = RandomMappedDisjoint(engine, &rng, 8 + 2 * i, &used);
    c.expect = ref::ProveDisjoint(engine, c.w, c.clause);
    cases.push_back(std::move(c));
  }
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < cases.size(); ++k) {
        const Case& c = cases[(k + t) % cases.size()];
        auto proof = engine.ProveDisjoint(c.w, c.clause);
        if (!proof.ok() || !(proof.value() == c.expect)) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace vchain::accum
