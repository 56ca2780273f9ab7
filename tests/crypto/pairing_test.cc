// Pairing correctness: generator sanity, bilinearity, non-degeneracy,
// multi-pairing products. These tests validate the whole crypto stack —
// a single wrong constant anywhere below breaks bilinearity.
//
// The Oracle* tests compare the production pairing (prepared projective
// lines, multi-Miller loop, cyclotomic final exponentiation) against a
// straightforward reference kept only here: the affine Miller loop, which
// inverts once per step, and a final exponentiation with plain squarings.

#include "crypto/pairing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rand.h"

namespace vchain::crypto {
namespace {

Fr RandFr(Rng* rng) {
  return Fr::FromU256Reduce(U256(rng->Next(), rng->Next(), rng->Next(), 0));
}

TEST(GroupTest, GeneratorsOnCurve) {
  EXPECT_TRUE(OnCurve(G1Generator(), G1B()));
  EXPECT_TRUE(OnCurve(G2Generator(), G2B()));
}

TEST(GroupTest, GeneratorsHavePrimeOrderR) {
  G1 rg1 = G1::FromAffine(G1Generator()).ScalarMul(kBnR);
  EXPECT_TRUE(rg1.IsInfinity());
  G2 rg2 = G2::FromAffine(G2Generator()).ScalarMul(kBnR);
  EXPECT_TRUE(rg2.IsInfinity());
}

TEST(GroupTest, JacobianAddConsistency) {
  Rng rng(1);
  G1 g = G1::FromAffine(G1Generator());
  for (int i = 0; i < 20; ++i) {
    U256 a = RandFr(&rng).ToCanonical();
    U256 b = RandFr(&rng).ToCanonical();
    G1 pa = g.ScalarMul(a);
    G1 pb = g.ScalarMul(b);
    U256 sum = a;
    uint64_t carry = sum.AddInPlace(b);
    G1 direct;
    if (carry || sum >= kBnR) {
      U256 reduced = sum;
      reduced.SubInPlace(kBnR);
      direct = g.ScalarMul(reduced);
    } else {
      direct = g.ScalarMul(sum);
    }
    EXPECT_TRUE(pa.Add(pb).Equal(direct));
  }
}

TEST(GroupTest, DoubleMatchesAddSelf) {
  Rng rng(2);
  G1 p = G1::FromAffine(G1Generator()).ScalarMul(RandFr(&rng).ToCanonical());
  EXPECT_TRUE(p.Double().Equal(p.Add(p)));
  G2 q = G2::FromAffine(G2Generator()).ScalarMul(RandFr(&rng).ToCanonical());
  EXPECT_TRUE(q.Double().Equal(q.Add(q)));
}

TEST(GroupTest, AffineRoundTrip) {
  Rng rng(3);
  G1 p = G1::FromAffine(G1Generator()).ScalarMul(RandFr(&rng).ToCanonical());
  G1Affine a = p.ToAffine();
  EXPECT_TRUE(OnCurve(a, G1B()));
  EXPECT_TRUE(G1::FromAffine(a).Equal(p));
}

TEST(GroupTest, InfinityBehaviour) {
  G1 inf = G1::Infinity();
  G1 g = G1::FromAffine(G1Generator());
  EXPECT_TRUE(inf.Add(g).Equal(g));
  EXPECT_TRUE(g.Add(inf).Equal(g));
  EXPECT_TRUE(g.Add(g.Neg()).IsInfinity());
  EXPECT_TRUE(inf.Double().IsInfinity());
  EXPECT_TRUE(g.ScalarMul(U256(0)).IsInfinity());
}

TEST(PairingTest, NonDegenerate) {
  const GT& e = PairingOfGenerators();
  EXPECT_FALSE(e.IsOne());
  EXPECT_FALSE(e.IsZero());
}

TEST(PairingTest, GtElementHasOrderR) {
  const GT& e = PairingOfGenerators();
  EXPECT_TRUE(e.Pow(kBnR).IsOne());
}

TEST(PairingTest, BilinearInFirstArgument) {
  Rng rng(4);
  Fr a = RandFr(&rng);
  G1Affine pa = G1Mul(a).ToAffine();
  GT lhs = Pairing(pa, G2Generator());
  GT rhs = PairingOfGenerators().Pow(a.ToCanonical());
  EXPECT_EQ(lhs, rhs);
}

TEST(PairingTest, BilinearInSecondArgument) {
  Rng rng(5);
  Fr b = RandFr(&rng);
  G2Affine qb = G2Mul(b).ToAffine();
  GT lhs = Pairing(G1Generator(), qb);
  GT rhs = PairingOfGenerators().Pow(b.ToCanonical());
  EXPECT_EQ(lhs, rhs);
}

TEST(PairingTest, FullBilinearity) {
  Rng rng(6);
  for (int i = 0; i < 3; ++i) {
    Fr a = RandFr(&rng);
    Fr b = RandFr(&rng);
    G1Affine pa = G1Mul(a).ToAffine();
    G2Affine qb = G2Mul(b).ToAffine();
    GT lhs = Pairing(pa, qb);
    GT rhs = PairingOfGenerators().Pow((a * b).ToCanonical());
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(PairingTest, AdditiveInFirstArgument) {
  Rng rng(7);
  Fr a = RandFr(&rng);
  Fr b = RandFr(&rng);
  G1Affine pa = G1Mul(a).ToAffine();
  G1Affine pb = G1Mul(b).ToAffine();
  G1Affine pab = G1Mul(a + b).ToAffine();
  GT split = Pairing(pa, G2Generator()) * Pairing(pb, G2Generator());
  GT joint = Pairing(pab, G2Generator());
  EXPECT_EQ(split, joint);
}

TEST(PairingTest, InfinityGivesOne) {
  EXPECT_TRUE(Pairing(G1Affine(), G2Generator()).IsOne());
  EXPECT_TRUE(Pairing(G1Generator(), G2Affine()).IsOne());
}

TEST(PairingTest, ProductIsOneDetectsIdentity) {
  Rng rng(8);
  Fr a = RandFr(&rng);
  // e(aG1, G2) * e(-aG1, G2) == 1.
  G1Affine pa = G1Mul(a).ToAffine();
  G1Affine pna = G1Mul(a.Neg()).ToAffine();
  EXPECT_TRUE(PairingProductIsOne({{pa, G2Generator()}, {pna, G2Generator()}}));
  // And a non-identity case.
  EXPECT_FALSE(
      PairingProductIsOne({{pa, G2Generator()}, {pa, G2Generator()}}));
}

TEST(PairingTest, ProductMatchesPairwise) {
  Rng rng(9);
  Fr a = RandFr(&rng);
  Fr b = RandFr(&rng);
  G1Affine pa = G1Mul(a).ToAffine();
  G1Affine pb = G1Mul(b).ToAffine();
  G2Affine q = G2Generator();
  GT prod = PairingProduct({{pa, q}, {pb, q}});
  EXPECT_EQ(prod, Pairing(pa, q) * Pairing(pb, q));
}

// ---------------------------------------------------------------------------
// Reference pairing (test oracle).
// ---------------------------------------------------------------------------

namespace ref {

// NAF digits of 6u + 2, least significant first.
std::vector<int> SixUPlus2Naf() {
  uint128_t k = static_cast<uint128_t>(kBnU) * 6 + 2;
  std::vector<int> naf;
  while (k != 0) {
    int digit = 0;
    if (k & 1) digit = ((k & 3) == 3) ? -1 : 1;
    naf.push_back(digit);
    k -= static_cast<uint128_t>(static_cast<int64_t>(digit));
    k >>= 1;
  }
  return naf;
}

// Affine line through psi(T) with twist slope lambda, evaluated at P:
//   yP - (lambda xP) w + (lambda xT - yT) w^3; then T = (x3, y3).
Fp12 LineAndStep(G2Affine* t, const Fp2& lambda, const Fp2& x3,
                 const G1Affine& p, const Fp12& f) {
  Fp2 y3 = lambda * (t->x - x3) - t->y;
  Fp12 out = f.MulBySparseLine(Fp2::FromFp(p.y), lambda.MulFp(p.x).Neg(),
                               lambda * t->x - t->y);
  t->x = x3;
  t->y = y3;
  return out;
}

Fp12 DoubleStep(G2Affine* t, const G1Affine& p, const Fp12& f) {
  Fp2 xx = t->x.Square();
  Fp2 lambda = (xx.Double() + xx) * t->y.Double().Inverse();
  return LineAndStep(t, lambda, lambda.Square() - t->x.Double(), p, f);
}

Fp12 AddStep(G2Affine* t, const G2Affine& q, const G1Affine& p,
             const Fp12& f) {
  Fp2 lambda = (q.y - t->y) * (q.x - t->x).Inverse();
  return LineAndStep(t, lambda, lambda.Square() - t->x - q.x, p, f);
}

G2Affine FrobeniusTwist(const G2Affine& q) {
  U256 pm1 = kFpParams.modulus;
  pm1.SubInPlace(U256(1));
  U256 e3, e2 = pm1;
  uint64_t rem = 0;
  DivByWord(pm1, 3, &e3, &rem);
  e2.Shr1InPlace();
  Fp2 xi = Fp2::FromUint64(9, 1);
  return G2Affine(q.x.Conjugate() * xi.Pow(e3), q.y.Conjugate() * xi.Pow(e2));
}

Fp12 MillerLoop(const G1Affine& p, const G2Affine& q) {
  if (p.infinity || q.infinity) return Fp12::One();
  std::vector<int> naf = SixUPlus2Naf();
  G2Affine t = q;
  Fp12 f = Fp12::One();
  for (int i = static_cast<int>(naf.size()) - 2; i >= 0; --i) {
    f = DoubleStep(&t, p, f.Square());
    if (naf[i] == 1) f = AddStep(&t, q, p, f);
    if (naf[i] == -1) f = AddStep(&t, q.Neg(), p, f);
  }
  G2Affine q1 = FrobeniusTwist(q);
  f = AddStep(&t, q1, p, f);
  return AddStep(&t, FrobeniusTwist(q1).Neg(), p, f);
}

Fp12 EasyPart(const Fp12& f) {
  Fp12 t1 = f.Conjugate() * f.Inverse();
  return t1 * t1.FrobeniusP2();
}

Fp12 PowU(const Fp12& f) { return f.Pow(U256(kBnU)); }

// Devegili-Scott-Dominguez hard part with four u-powers and plain squaring.
Fp12 FinalExponentiation(const Fp12& f_in) {
  Fp12 f = EasyPart(f_in);
  Fp12 fp = f.Frobenius();
  Fp12 fp2 = f.FrobeniusP2();
  Fp12 fp3 = fp2.Frobenius();
  Fp12 fu = PowU(f);
  Fp12 fu2 = PowU(fu);
  Fp12 fu3 = PowU(fu2);
  Fp12 y0 = fp * fp2 * fp3;
  Fp12 y1 = f.Conjugate();
  Fp12 y2 = fu2.FrobeniusP2();
  Fp12 y3 = PowU(f).Frobenius().Conjugate();
  Fp12 y4 = (fu * fu2.Frobenius()).Conjugate();
  Fp12 y5 = fu2.Conjugate();
  Fp12 y6 = (fu3 * fu3.Frobenius()).Conjugate();
  Fp12 t0 = y6.Square() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = (t1.Square() * t0).Square();
  t0 = t1 * y1;
  t1 = t1 * y0;
  return t0.Square() * t1;
}

Fp12 PairingProduct(const std::vector<std::pair<G1Affine, G2Affine>>& pairs) {
  Fp12 f = Fp12::One();
  for (const auto& [p, q] : pairs) f = f * ref::MillerLoop(p, q);
  return ref::FinalExponentiation(f);
}

}  // namespace ref

Fp RandFp(Rng* rng) {
  return Fp::FromU256Reduce(U256(rng->Next(), rng->Next(), rng->Next(),
                                 rng->Next() >> 3));
}

Fp12 RandFp12(Rng* rng) {
  auto fp2 = [&] { return Fp2(RandFp(rng), RandFp(rng)); };
  return Fp12(Fp6(fp2(), fp2(), fp2()), Fp6(fp2(), fp2(), fp2()));
}

TEST(OracleTest, CyclotomicSquareMatchesSquareAfterEasyPart) {
  Rng rng(20);
  for (int i = 0; i < 16; ++i) {
    Fp12 g = ref::EasyPart(RandFp12(&rng));
    for (int j = 0; j < 4; ++j) {
      ASSERT_EQ(g.CyclotomicSquare(), g.Square()) << "sample " << i;
      g = g.Square();
    }
  }
}

TEST(OracleTest, FinalExponentiationMatchesReference) {
  Rng rng(21);
  for (int i = 0; i < 8; ++i) {
    Fp12 f = RandFp12(&rng);
    EXPECT_EQ(FinalExponentiation(f), ref::FinalExponentiation(f));
  }
}

// One random pair shape per draw: random points, infinity on either side,
// the generator (cached preparation), and a G2 point repeated from earlier
// in the same set.
std::pair<G1Affine, G2Affine> RandPair(
    Rng* rng, const std::vector<std::pair<G1Affine, G2Affine>>& earlier) {
  G1Affine p = (rng->Next() % 8 == 0) ? G1Affine()
                                      : G1Mul(RandFr(rng)).ToAffine();
  G2Affine q;
  switch (rng->Next() % 8) {
    case 0:
      break;  // infinity
    case 1:
    case 2:
      q = G2Generator();
      break;
    case 3:
      if (!earlier.empty()) {
        q = earlier[rng->Next() % earlier.size()].second;
        break;
      }
      [[fallthrough]];
    default:
      q = G2Mul(RandFr(rng)).ToAffine();
  }
  return {p, q};
}

TEST(OracleTest, PairingsMatchReferenceOnRandomSets) {
  Rng rng(22);
  int ones = 0;
  for (int set = 0; set < 64; ++set) {
    size_t n = 1 + rng.Next() % 4;
    std::vector<std::pair<G1Affine, G2Affine>> pairs;
    if (set % 4 == 3) {
      // Verifier shape: prod_i e(a_i g1, b_i g2) * e(-sum a_i b_i g1, g2),
      // exactly one, with 2-4 pairs.
      Fr sum = Fr::Zero();
      for (size_t i = 1; i < std::max<size_t>(n, 2); ++i) {
        Fr a = RandFr(&rng), b = RandFr(&rng);
        pairs.push_back({G1Mul(a).ToAffine(), G2Mul(b).ToAffine()});
        sum += a * b;
      }
      pairs.push_back({G1Mul(sum.Neg()).ToAffine(), G2Generator()});
    } else {
      for (size_t i = 0; i < n; ++i) pairs.push_back(RandPair(&rng, pairs));
    }

    GT expected = ref::PairingProduct(pairs);
    EXPECT_EQ(PairingProduct(pairs), expected) << "set " << set;
    EXPECT_EQ(PairingProductIsOne(pairs), expected.IsOne()) << "set " << set;
    ones += expected.IsOne();
    const auto& [p, q] = pairs.front();
    EXPECT_EQ(Pairing(p, q), ref::FinalExponentiation(ref::MillerLoop(p, q)))
        << "set " << set;
  }
  EXPECT_GE(ones, 16);
}

TEST(OracleTest, CachedGeneratorMatchesFreshPreparation) {
  Rng rng(23);
  G1Affine p = G1Mul(RandFr(&rng)).ToAffine();
  G2Prepared fresh = PrepareG2(G2Generator());
  const std::pair<G1Affine, const G2Prepared*> a{p, &fresh};
  const std::pair<G1Affine, const G2Prepared*> b{p, &PreparedG2Generator()};
  EXPECT_EQ(MultiMillerLoop({&a, 1}), MultiMillerLoop({&b, 1}));
  EXPECT_EQ(FinalExponentiation(MultiMillerLoop({&b, 1})),
            ref::FinalExponentiation(ref::MillerLoop(p, G2Generator())));
}

TEST(OracleTest, InfinityOnEitherSideContributesOne) {
  G2Prepared inf;
  EXPECT_TRUE(inf.infinity());
  EXPECT_TRUE(PrepareG2(G2Affine()).infinity());
  const std::pair<G1Affine, const G2Prepared*> pairs[] = {
      {G1Generator(), &inf}, {G1Affine(), &PreparedG2Generator()}};
  EXPECT_TRUE(MultiMillerLoop(pairs).IsOne());
}

TEST(SerdeTest, G1RoundTrip) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    G1Affine p = G1Mul(RandFr(&rng)).ToAffine();
    ByteWriter w;
    SerializeG1(p, &w);
    EXPECT_EQ(w.size(), kG1SerializedSize);
    ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
    G1Affine back;
    ASSERT_TRUE(DeserializeG1(&r, &back).ok());
    EXPECT_EQ(back, p);
  }
}

TEST(SerdeTest, G1InfinityRoundTrip) {
  ByteWriter w;
  SerializeG1(G1Affine(), &w);
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  G1Affine back;
  ASSERT_TRUE(DeserializeG1(&r, &back).ok());
  EXPECT_TRUE(back.infinity);
}

TEST(SerdeTest, G2RoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    G2Affine q = G2Mul(RandFr(&rng)).ToAffine();
    ByteWriter w;
    SerializeG2(q, &w);
    EXPECT_EQ(w.size(), kG2SerializedSize);
    ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
    G2Affine back;
    ASSERT_TRUE(DeserializeG2(&r, &back).ok());
    EXPECT_EQ(back, q);
  }
}

TEST(SerdeTest, G1RejectsOffCurveX) {
  // x = 4 gives rhs = 67 which is a QR? Construct an x with no curve point by
  // brute force search.
  for (uint64_t x = 0; x < 100; ++x) {
    Fp fx = Fp::FromUint64(x);
    Fp rhs = fx.Square() * fx + G1B();
    Fp root;
    if (!rhs.Sqrt(&root)) {
      uint8_t buf[32] = {0};
      U256ToBytesBE(U256(x), buf);
      ByteReader r(ByteSpan(buf, 32));
      G1Affine out;
      EXPECT_FALSE(DeserializeG1(&r, &out).ok());
      return;
    }
  }
  FAIL() << "no non-residue x found in range";
}

TEST(MultiExpTest, MatchesNaive) {
  Rng rng(12);
  for (size_t n : {1u, 2u, 5u, 33u}) {
    std::vector<G1Affine> bases;
    std::vector<U256> scalars;
    G1 expected = G1::Infinity();
    for (size_t i = 0; i < n; ++i) {
      Fr k = RandFr(&rng);
      G1Affine base = G1Mul(RandFr(&rng)).ToAffine();
      bases.push_back(base);
      scalars.push_back(k.ToCanonical());
      expected = expected.Add(G1::FromAffine(base).ScalarMul(k.ToCanonical()));
    }
    G1 got = MultiScalarMul(bases, scalars);
    EXPECT_TRUE(got.Equal(expected)) << "n=" << n;
  }
}

TEST(MultiExpTest, HandlesZeroScalars) {
  std::vector<G1Affine> bases{G1Generator(), G1Generator()};
  std::vector<U256> scalars{U256(0), U256(7)};
  G1 got = MultiScalarMul(bases, scalars);
  EXPECT_TRUE(got.Equal(G1::FromAffine(G1Generator()).ScalarMul(U256(7))));
}

}  // namespace
}  // namespace vchain::crypto
