// Property tests for the batch-affine Pippenger MultiScalarMul: the
// optimized path (signed digits, simultaneous-inversion bucket reduction)
// must agree with naive per-point ScalarMul summation on every input shape,
// including the degenerate ones that exercise the affine special cases
// (duplicate bases -> doublings, base/negated-base pairs -> cancellations,
// zero scalars).

#include <gtest/gtest.h>

#include <vector>

#include "common/rand.h"
#include "crypto/bn254.h"
#include "crypto/pairing.h"

namespace vchain::crypto {
namespace {

U256 RandScalar(Rng* rng) {
  U256 v(rng->Next(), rng->Next(), rng->Next(), rng->Next());
  v.limb[3] &= (1ULL << 62) - 1;
  return Fr::FromU256Reduce(v).ToCanonical();
}

template <typename F>
JacobianPoint<F> NaiveMsm(const std::vector<AffinePoint<F>>& bases,
                          const std::vector<U256>& scalars) {
  JacobianPoint<F> acc = JacobianPoint<F>::Infinity();
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = acc.Add(JacobianPoint<F>::FromAffine(bases[i]).ScalarMul(scalars[i]));
  }
  return acc;
}

TEST(MsmTest, MatchesNaiveAcrossSizes) {
  Rng rng(101);
  for (size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 90u}) {
    std::vector<G1Affine> bases;
    std::vector<U256> scalars;
    for (size_t i = 0; i < n; ++i) {
      bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
      scalars.push_back(RandScalar(&rng));
    }
    G1 got = MultiScalarMul(bases, scalars);
    EXPECT_TRUE(got.Equal(NaiveMsm(bases, scalars))) << "n=" << n;
  }
}

TEST(MsmTest, ZeroScalarsAndEmptyInput) {
  EXPECT_TRUE(MultiScalarMul(std::vector<G1Affine>{}, std::vector<U256>{})
                  .IsInfinity());

  Rng rng(102);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < 20; ++i) {
    bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(i % 3 == 0 ? U256(0) : RandScalar(&rng));
  }
  EXPECT_TRUE(
      MultiScalarMul(bases, scalars).Equal(NaiveMsm(bases, scalars)));

  // All-zero scalars.
  std::vector<U256> zeros(bases.size(), U256(0));
  EXPECT_TRUE(MultiScalarMul(bases, zeros).IsInfinity());
}

// Large mixed input engineered to drive the batch-affine rounds through all
// four pair kinds: random points (additions), duplicated (base, scalar)
// pairs that collide in one bucket (doublings), and P / -P pairs with equal
// scalars (cancellation to infinity, then identity propagation).
TEST(MsmTest, BatchAffineSpecialCasesAtScale) {
  Rng rng(103);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < 96; ++i) {
    bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(RandScalar(&rng));
  }
  // 64 copies of one (base, scalar): deep doubling chains in one bucket.
  G1Affine dup = G1Mul(Fr::FromUint64(777)).ToAffine();
  U256 dup_scalar = RandScalar(&rng);
  for (size_t i = 0; i < 64; ++i) {
    bases.push_back(dup);
    scalars.push_back(dup_scalar);
  }
  // 32 P/-P pairs sharing a scalar: in-bucket cancellations.
  for (size_t i = 0; i < 32; ++i) {
    G1Affine p = G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine();
    U256 s = RandScalar(&rng);
    bases.push_back(p);
    scalars.push_back(s);
    bases.push_back(p.Neg());
    scalars.push_back(s);
  }
  G1 got = MultiScalarMul(bases, scalars);
  EXPECT_TRUE(got.Equal(NaiveMsm(bases, scalars)));
}

TEST(MsmTest, SmallScalarsMatchNaive) {
  Rng rng(104);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < 150; ++i) {
    bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(U256((rng.Next() % 16) + 1));  // multiplicity counts
  }
  EXPECT_TRUE(
      MultiScalarMul(bases, scalars).Equal(NaiveMsm(bases, scalars)));
}

TEST(MsmTest, G2MatchesNaive) {
  Rng rng(105);
  std::vector<G2Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < 40; ++i) {
    bases.push_back(G2Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(RandScalar(&rng));
  }
  G2 got = MultiScalarMul(bases, scalars);
  EXPECT_TRUE(got.Equal(NaiveMsm(bases, scalars)));
}

TEST(MsmTest, BatchInvertMatchesIndividualInverses) {
  Rng rng(107);
  std::vector<Fp> xs;
  for (size_t i = 0; i < 37; ++i) {
    xs.push_back(Fp::FromUint64(rng.Next() | 1));
  }
  std::vector<Fp> expect;
  for (const Fp& x : xs) expect.push_back(x.Inverse());
  std::vector<Fp> scratch;
  BatchInvert(xs.data(), xs.size(), &scratch);
  EXPECT_EQ(xs, expect);
}

TEST(MsmTest, MixedAdditionEdgeCases) {
  G1 g = G1::FromAffine(G1Generator());
  // inf + P, P + inf.
  EXPECT_TRUE(G1::Infinity().AddAffine(G1Generator()).Equal(g));
  EXPECT_TRUE(g.AddAffine(G1Affine()).Equal(g));
  // P + P = 2P.
  EXPECT_TRUE(g.AddAffine(G1Generator()).Equal(g.Double()));
  // P + (-P) = inf.
  EXPECT_TRUE(g.AddAffine(G1Generator().Neg()).IsInfinity());
  // Mixed add agrees with the general add on random points.
  Rng rng(108);
  for (int i = 0; i < 10; ++i) {
    G1 a = G1Mul(Fr::FromUint64(rng.Next() | 1));
    G1Affine b = G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine();
    EXPECT_TRUE(a.AddAffine(b).Equal(a.Add(G1::FromAffine(b))));
  }
}

}  // namespace
}  // namespace vchain::crypto
