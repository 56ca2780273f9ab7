#include "crypto/pairing.h"

#include <cassert>

namespace vchain::crypto {

namespace {

// ---------------------------------------------------------------------------
// Exponents in non-adjacent form, least significant digit first: the Miller
// loop runs over 6u + 2, the hard part of the final exponentiation over u
// (u = kBnU). Both are derived from the curve seed at startup; no hardcoded
// digit table.
// ---------------------------------------------------------------------------

std::vector<int> Naf(uint128_t k) {
  std::vector<int> naf;
  while (k != 0) {
    int digit = 0;
    if (k & 1) digit = ((k & 3) == 3) ? -1 : 1;  // k mod 4 in {1, 3}
    naf.push_back(digit);
    k -= static_cast<uint128_t>(static_cast<int64_t>(digit));
    k >>= 1;
  }
  return naf;
}

const std::vector<int>& SixUPlus2Naf() {
  // 6u + 2 fits in 66 bits for the BN254 seed.
  static const std::vector<int> kNaf =
      Naf(static_cast<uint128_t>(kBnU) * 6 + 2);
  return kNaf;
}

const std::vector<int>& UNaf() {
  static const std::vector<int> kNaf = Naf(kBnU);
  return kNaf;
}

// Lines per prepared point: one doubling per digit below the top, one
// addition per nonzero digit below the top, two correction additions.
size_t LineCount() {
  static const size_t kCount = [] {
    const std::vector<int>& naf = SixUPlus2Naf();
    size_t n = naf.size() - 1 + 2;
    for (size_t i = 0; i + 1 < naf.size(); ++i) n += (naf[i] != 0);
    return n;
  }();
  return kCount;
}

// ---------------------------------------------------------------------------
// Projective line steps. T = (X : Y : Z) is a point on the twist in
// homogeneous coordinates (affine X/Z, Y/Z). Under the untwist
// psi(x', y') = (x' w^2, y' w^3) the affine line with twist slope lambda
// through psi(A), evaluated at P, is
//   yP - (lambda xP) w + (lambda xA - yA) w^3.
// Each step below returns that line scaled by an Fp2 factor chosen to clear
// every denominator, so no step inverts.
// ---------------------------------------------------------------------------

struct TwistPoint {
  Fp2 x, y, z;
};

using Line = G2Prepared::Line;

// Formula 3 (tangent at T, then T = 2T). Scaling the tangent by 2YZ and
// substituting X^3 = Y^2 Z - b'Z^3 gives
//   l = -2YZ yP + 3X^2 xP w + (3b'Z^2 - Y^2) w^3.
// The new coordinates are 4x those of the formula, which avoids its two
// halvings and names the same projective point.
Line DoublingStep(TwistPoint* t, const Fp2& three_b) {
  Fp2 b = t->y.Square();
  Fp2 c = t->z.Square();
  Fp2 e = c * three_b;                     // 3b'Z^2
  Fp2 f = e.Double() + e;                  // 9b'Z^2
  Fp2 h = (t->y + t->z).Square() - b - c;  // 2YZ
  Fp2 j = t->x.Square();
  Line line{h.Neg(), j.Double() + j, e - b};
  Fp2 ee = e.Square();
  Fp2 ee3 = ee.Double() + ee;
  t->x = (t->x * t->y).Double() * (b - f);
  t->y = (b + f).Square() - ee3.Double().Double();
  t->z = (b * h).Double().Double();
  return line;
}

// Formula 4 (chord through T and affine Q, then T = T + Q). With
// theta = Y - yQ Z and lambda = X - xQ Z the slope is theta / lambda;
// scaling by lambda and taking Q as the point on the line gives
//   l = lambda yP - theta xP w + (theta xQ - lambda yQ) w^3.
// Precondition: T != +-Q, which holds throughout the optimal ate loop for
// prime-order inputs.
Line AdditionStep(TwistPoint* t, const G2Affine& q) {
  Fp2 theta = t->y - q.y * t->z;
  Fp2 lambda = t->x - q.x * t->z;
  Fp2 c = theta.Square();
  Fp2 d = lambda.Square();
  Fp2 e = lambda * d;
  Fp2 f = t->z * c;
  Fp2 g = t->x * d;
  Fp2 h = e + f - g.Double();
  Line line{lambda, theta.Neg(), theta * q.x - lambda * q.y};
  t->x = lambda * h;
  t->y = theta * (g - h) - t->y * e;
  t->z = t->z * e;
  return line;
}

// Frobenius endomorphism transported to the twist:
//   pi(x, y) = (conj(x) * xi^{(p-1)/3}, conj(y) * xi^{(p-1)/2}).
struct TwistFrobeniusConsts {
  Fp2 gamma_x;  // xi^{(p-1)/3}
  Fp2 gamma_y;  // xi^{(p-1)/2}
};

const TwistFrobeniusConsts& TwistFrobenius() {
  static const TwistFrobeniusConsts kConsts = [] {
    U256 pm1 = kFpParams.modulus;
    pm1.SubInPlace(U256(1));
    U256 e3, e2;
    uint64_t rem = 0;
    DivByWord(pm1, 3, &e3, &rem);
    e2 = pm1;
    e2.Shr1InPlace();
    Fp2 xi = Fp2::FromUint64(9, 1);
    return TwistFrobeniusConsts{xi.Pow(e3), xi.Pow(e2)};
  }();
  return kConsts;
}

G2Affine FrobeniusTwist(const G2Affine& q) {
  if (q.infinity) return q;
  const auto& c = TwistFrobenius();
  return G2Affine(q.x.Conjugate() * c.gamma_x, q.y.Conjugate() * c.gamma_y);
}

// f^u for f in the cyclotomic subgroup (any value after the easy part),
// where f^-1 is the free conjugate, so the NAF digits of u cost one
// multiplication each whatever their sign.
Fp12 PowU(const Fp12& f) {
  const std::vector<int>& naf = UNaf();
  Fp12 f_inv = f.Conjugate();
  Fp12 acc = f;  // top digit is 1
  for (int i = static_cast<int>(naf.size()) - 2; i >= 0; --i) {
    acc = acc.CyclotomicSquare();
    if (naf[i] == 1) acc = acc * f;
    if (naf[i] == -1) acc = acc * f_inv;
  }
  return acc;
}

// The generator's cached lines when q is g2, otherwise q prepared into
// *storage.
const G2Prepared* PreparedOf(const G2Affine& q, G2Prepared* storage) {
  if (q == G2Generator()) return &PreparedG2Generator();
  *storage = PrepareG2(q);
  return storage;
}

}  // namespace

G2Prepared PrepareG2(const G2Affine& q) {
  G2Prepared out;
  if (q.infinity) return out;

  static const Fp2 kThreeB = G2B().Double() + G2B();
  const std::vector<int>& naf = SixUPlus2Naf();
  G2Affine minus_q = q.Neg();
  TwistPoint t{q.x, q.y, Fp2::One()};
  out.lines_.reserve(LineCount());

  for (int i = static_cast<int>(naf.size()) - 2; i >= 0; --i) {
    out.lines_.push_back(DoublingStep(&t, kThreeB));
    if (naf[i] == 1) {
      out.lines_.push_back(AdditionStep(&t, q));
    } else if (naf[i] == -1) {
      out.lines_.push_back(AdditionStep(&t, minus_q));
    }
  }

  // Correction additions with pi(Q) and -pi^2(Q).
  G2Affine q1 = FrobeniusTwist(q);
  G2Affine q2 = FrobeniusTwist(q1).Neg();
  out.lines_.push_back(AdditionStep(&t, q1));
  out.lines_.push_back(AdditionStep(&t, q2));
  assert(out.lines_.size() == LineCount());
  return out;
}

const G2Prepared& PreparedG2Generator() {
  static const G2Prepared kPrepared = PrepareG2(G2Generator());
  return kPrepared;
}

GT MultiMillerLoop(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs) {
  struct Live {
    const G1Affine* p;
    const Line* lines;
  };
  std::vector<Live> live;
  live.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    if (p.infinity || q->infinity()) continue;
    assert(q->lines().size() == LineCount());
    live.push_back({&p, q->lines().data()});
  }

  Fp12 f = Fp12::One();
  if (live.empty()) return f;

  // Multiplies f by line k of every live pair.
  size_t k = 0;
  auto mul_lines = [&] {
    for (const Live& pair : live) {
      const Line& l = pair.lines[k];
      f = f.MulBySparseLine(l.c_y.MulFp(pair.p->y), l.c_x.MulFp(pair.p->x),
                            l.c_1);
    }
    ++k;
  };

  const std::vector<int>& naf = SixUPlus2Naf();
  for (int i = static_cast<int>(naf.size()) - 2; i >= 0; --i) {
    if (k != 0) f = f.Square();  // f = 1 before the first step
    mul_lines();
    if (naf[i] != 0) mul_lines();
  }
  mul_lines();  // pi(Q)
  mul_lines();  // -pi^2(Q)
  assert(k == LineCount());
  return f;
}

GT FinalExponentiation(const GT& f_in) {
  // Easy part: f^((p^6 - 1)(p^2 + 1)). Everything after it lies in the
  // cyclotomic subgroup, where CyclotomicSquare is valid.
  Fp12 f = f_in;
  Fp12 t1 = f.Conjugate() * f.Inverse();
  Fp12 t2 = t1.FrobeniusP2();
  f = t1 * t2;

  // Hard part (Devegili-Scott-Dominguez schedule for BN curves).
  Fp12 fp = f.Frobenius();
  Fp12 fp2 = f.FrobeniusP2();
  Fp12 fp3 = fp2.Frobenius();

  Fp12 fu = PowU(f);
  Fp12 fu2 = PowU(fu);
  Fp12 fu3 = PowU(fu2);

  Fp12 y3 = fu.Frobenius();
  Fp12 fu2p = fu2.Frobenius();
  Fp12 fu3p = fu3.Frobenius();
  Fp12 y2 = fu2.FrobeniusP2();

  Fp12 y0 = fp * fp2 * fp3;
  Fp12 y1 = f.Conjugate();
  Fp12 y5 = fu2.Conjugate();
  y3 = y3.Conjugate();
  Fp12 y4 = (fu * fu2p).Conjugate();
  Fp12 y6 = (fu3 * fu3p).Conjugate();

  Fp12 t0 = y6.CyclotomicSquare() * y4 * y5;
  Fp12 tt1 = y3 * y5 * t0;
  t0 = t0 * y2;
  tt1 = (tt1.CyclotomicSquare() * t0).CyclotomicSquare();
  t0 = tt1 * y1;
  tt1 = tt1 * y0;
  t0 = t0.CyclotomicSquare() * tt1;
  return t0;
}

GT Pairing(const G1Affine& p, const G2Affine& q) {
  return FinalExponentiation(MillerLoop(p, q));
}

GT MillerLoop(const G1Affine& p, const G2Affine& q) {
  if (p.infinity || q.infinity) return GT::One();
  G2Prepared storage;
  const std::pair<G1Affine, const G2Prepared*> pair{p, PreparedOf(q, &storage)};
  return MultiMillerLoop({&pair, 1});
}

GT PairingProduct(const std::vector<std::pair<G1Affine, G2Affine>>& pairs) {
  // Reserved up front so the pointers into it stay valid.
  std::vector<G2Prepared> storage;
  storage.reserve(pairs.size());
  std::vector<std::pair<G1Affine, const G2Prepared*>> prepared;
  prepared.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    if (p.infinity || q.infinity) continue;
    prepared.emplace_back(p, PreparedOf(q, &storage.emplace_back()));
  }
  return FinalExponentiation(MultiMillerLoop(prepared));
}

bool PairingProductIsOne(
    const std::vector<std::pair<G1Affine, G2Affine>>& pairs) {
  return PairingProduct(pairs).IsOne();
}

const GT& PairingOfGenerators() {
  static const GT kE = Pairing(G1Generator(), G2Generator());
  return kE;
}

}  // namespace vchain::crypto
