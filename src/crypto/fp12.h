// Quadratic extension Fp12 = Fp6[w] / (w^2 - v); the pairing target group GT
// is the order-r subgroup of Fp12*.
//
// Frobenius maps use the w-power basis {w^0..w^5} over Fp2 (w^6 = xi), where
// pi_p acts coefficient-wise by conjugation times gamma_i = xi^{i(p-1)/6}.
// The gamma constants are derived at first use from xi — nothing is
// hand-transcribed.

#ifndef VCHAIN_CRYPTO_FP12_H_
#define VCHAIN_CRYPTO_FP12_H_

#include <array>

#include "crypto/fp6.h"

namespace vchain::crypto {

/// c0 + c1*w with w^2 = v.
struct Fp12 {
  Fp6 c0, c1;

  Fp12() = default;
  Fp12(const Fp6& x0, const Fp6& x1) : c0(x0), c1(x1) {}

  static Fp12 Zero() { return Fp12(); }
  static Fp12 One() { return Fp12(Fp6::One(), Fp6::Zero()); }

  bool IsZero() const { return c0.IsZero() && c1.IsZero(); }
  bool IsOne() const { return *this == One(); }
  bool operator==(const Fp12& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp12& o) const { return !(*this == o); }

  Fp12 operator+(const Fp12& o) const { return Fp12(c0 + o.c0, c1 + o.c1); }
  Fp12 operator-(const Fp12& o) const { return Fp12(c0 - o.c0, c1 - o.c1); }

  Fp12 operator*(const Fp12& o) const {
    // Karatsuba over Fp6: (a0 + a1 w)(b0 + b1 w)
    //   = a0 b0 + a1 b1 v + ((a0+a1)(b0+b1) - a0 b0 - a1 b1) w.
    Fp6 t0 = c0 * o.c0;
    Fp6 t1 = c1 * o.c1;
    Fp6 cross = (c0 + c1) * (o.c0 + o.c1) - t0 - t1;
    return Fp12(t0 + t1.MulByV(), cross);
  }

  Fp12& operator*=(const Fp12& o) { return *this = *this * o; }

  Fp12 Square() const {
    // Complex squaring: (a0 + a1 w)^2 = (a0+a1)(a0 + a1 v) - m - m v + 2 m w,
    // with m = a0 a1.
    Fp6 m = c0 * c1;
    Fp6 t = (c0 + c1) * (c0 + c1.MulByV());
    return Fp12(t - m - m.MulByV(), m.Double());
  }

  /// Granger-Scott squaring, valid only in the cyclotomic subgroup (elements
  /// f with f^(p^4 - p^2 + 1) = 1: all of GT and every value after the easy
  /// part of the final exponentiation). It views Fp12 as Fp4^3, with
  /// Fp4 = Fp2[s] / (s^2 - xi) and s = w^3, so f = a + b w + c w^2, and
  /// needs three Fp4 squarings instead of a full Fp12 square.
  Fp12 CyclotomicSquare() const {
    const Fp2& z0 = c0.c0;  // a = z0 + z1 s
    const Fp2& z1 = c1.c1;
    const Fp2& z2 = c1.c0;  // b = z2 + z3 s
    const Fp2& z3 = c0.c2;
    const Fp2& z4 = c0.c1;  // c = z4 + z5 s
    const Fp2& z5 = c1.c2;
    Fp2 t0, t1, t2, t3, t4, t5;
    Fp4Square(z0, z1, &t0, &t1);  // a^2
    Fp4Square(z2, z3, &t2, &t3);  // b^2
    Fp4Square(z4, z5, &t4, &t5);  // c^2
    // a' = 3a^2 - 2 conj(a), b' = 3 s c^2 + 2 conj(b), c' = 3b^2 - 2 conj(c).
    auto minus = [](const Fp2& t, const Fp2& z) {
      return (t - z).Double() + t;
    };
    auto plus = [](const Fp2& t, const Fp2& z) {
      return (t + z).Double() + t;
    };
    Fp2 r0 = minus(t0, z0);
    Fp2 r1 = plus(t1, z1);
    Fp2 r2 = plus(t5.MulByXi(), z2);
    Fp2 r3 = minus(t4, z3);
    Fp2 r4 = minus(t2, z4);
    Fp2 r5 = plus(t3, z5);
    return Fp12(Fp6(r0, r4, r3), Fp6(r2, r1, r5));
  }

  /// Multiply by the sparse line element L = (l00, 0, 0) + (l10, l11, 0) w
  /// produced by Miller-loop line evaluation (w-basis coefficients at
  /// w^0, w^1, w^3). ~40% cheaper than a generic multiplication.
  Fp12 MulBySparseLine(const Fp2& l00, const Fp2& l10, const Fp2& l11) const {
    Fp6 b0(l00, Fp2::Zero(), Fp2::Zero());
    Fp6 b1(l10, l11, Fp2::Zero());
    // Karatsuba with sparse operands.
    Fp6 t0 = c0.MulFp2(l00);
    Fp6 t1 = SparseMul1(c1, l10, l11);
    Fp6 sum_b = b0 + b1;  // (l00 + l10, l11, 0)
    Fp6 cross = SparseMul2(c0 + c1, sum_b.c0, sum_b.c1) - t0 - t1;
    return Fp12(t0 + t1.MulByV(), cross);
  }

  Fp12 Conjugate() const { return Fp12(c0, c1.Neg()); }

  Fp12 Inverse() const {
    // 1/(a0 + a1 w) = (a0 - a1 w) / (a0^2 - a1^2 v).
    Fp6 det = c0.Square() - c1.Square().MulByV();
    Fp6 det_inv = det.Inverse();
    return Fp12(c0 * det_inv, (c1 * det_inv).Neg());
  }

  Fp12 Pow(const U256& e) const {
    Fp12 acc = One();
    for (int i = e.BitLength() - 1; i >= 0; --i) {
      acc = acc.Square();
      if (e.Bit(i)) acc = acc * *this;
    }
    return acc;
  }

  /// p-power Frobenius endomorphism.
  Fp12 Frobenius() const {
    const auto& g = FrobeniusGammas();
    std::array<Fp2, 6> w = ToWBasis();
    std::array<Fp2, 6> out;
    for (int i = 0; i < 6; ++i) {
      out[i] = w[i].Conjugate() * g[i];
    }
    return FromWBasis(out);
  }

  /// p^2-power Frobenius (two applications of Frobenius()).
  Fp12 FrobeniusP2() const { return Frobenius().Frobenius(); }

 private:
  // w-basis order: {w^0, w^1, w^2, w^3, w^4, w^5} maps to Fp6/Fp2 slots
  // (c0.c0, c1.c0, c0.c1, c1.c1, c0.c2, c1.c2) since v = w^2.
  std::array<Fp2, 6> ToWBasis() const {
    return {c0.c0, c1.c0, c0.c1, c1.c1, c0.c2, c1.c2};
  }
  static Fp12 FromWBasis(const std::array<Fp2, 6>& w) {
    return Fp12(Fp6(w[0], w[2], w[4]), Fp6(w[1], w[3], w[5]));
  }

  /// gamma_i = xi^{i(p-1)/6}, derived once.
  static const std::array<Fp2, 6>& FrobeniusGammas() {
    static const std::array<Fp2, 6> kGammas = [] {
      U256 e;
      uint64_t rem = 0;
      U256 pm1 = kFpParams.modulus;
      pm1.SubInPlace(U256(1));
      DivByWord(pm1, 6, &e, &rem);
      Fp2 xi = Fp2::FromUint64(9, 1);
      Fp2 g1 = xi.Pow(e);
      std::array<Fp2, 6> out;
      out[0] = Fp2::One();
      for (int i = 1; i < 6; ++i) out[i] = out[i - 1] * g1;
      return out;
    }();
    return kGammas;
  }

  /// (x + y s)^2 = (x^2 + xi y^2) + 2xy s in Fp4 = Fp2[s] / (s^2 - xi).
  static void Fp4Square(const Fp2& x, const Fp2& y, Fp2* out0, Fp2* out1) {
    Fp2 xy = x * y;
    *out0 = (x + y) * (y.MulByXi() + x) - xy - xy.MulByXi();
    *out1 = xy.Double();
  }

  /// (a0 + a1 v + a2 v^2) * (b0 + b1 v) with sparse second operand.
  static Fp6 SparseMul1(const Fp6& a, const Fp2& b0, const Fp2& b1) {
    return Fp6(a.c0 * b0 + (a.c2 * b1).MulByXi(), a.c0 * b1 + a.c1 * b0,
               a.c1 * b1 + a.c2 * b0);
  }
  static Fp6 SparseMul2(const Fp6& a, const Fp2& b0, const Fp2& b1) {
    return SparseMul1(a, b0, b1);
  }
};

}  // namespace vchain::crypto

#endif  // VCHAIN_CRYPTO_FP12_H_
