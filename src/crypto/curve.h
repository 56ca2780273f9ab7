// Short-Weierstrass curve arithmetic (a = 0) shared by BN254 G1 (over Fp)
// and G2 (over Fp2, on the sextic twist y^2 = x^3 + 3/xi).
//
// Points are held in Jacobian coordinates (X, Y, Z) with the point at
// infinity encoded as Z = 0; affine views are produced on demand. Formulas
// are the standard a=0 Jacobian doubling/addition (EFD dbl-2009-l /
// add-2007-bl), implemented here directly over the templated field.

#ifndef VCHAIN_CRYPTO_CURVE_H_
#define VCHAIN_CRYPTO_CURVE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "crypto/field.h"

namespace vchain::crypto {

template <typename F>
struct AffinePoint {
  F x, y;
  bool infinity = true;

  AffinePoint() = default;
  AffinePoint(const F& x_in, const F& y_in) : x(x_in), y(y_in), infinity(false) {}

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }

  AffinePoint Neg() const {
    if (infinity) return *this;
    return AffinePoint(x, y.Neg());
  }
};

template <typename F>
struct JacobianPoint {
  F x, y, z;  // affine (x/z^2, y/z^3); infinity iff z == 0

  JacobianPoint() : x(F::Zero()), y(F::One()), z(F::Zero()) {}

  static JacobianPoint Infinity() { return JacobianPoint(); }

  static JacobianPoint FromAffine(const AffinePoint<F>& p) {
    JacobianPoint out;
    if (p.infinity) return out;
    out.x = p.x;
    out.y = p.y;
    out.z = F::One();
    return out;
  }

  bool IsInfinity() const { return z.IsZero(); }

  AffinePoint<F> ToAffine() const {
    if (IsInfinity()) return AffinePoint<F>();
    F zi = z.Inverse();
    F zi2 = zi.Square();
    return AffinePoint<F>(x * zi2, y * zi2 * zi);
  }

  JacobianPoint Neg() const {
    JacobianPoint out = *this;
    out.y = out.y.Neg();
    return out;
  }

  /// Point doubling (a = 0).
  JacobianPoint Double() const {
    if (IsInfinity()) return *this;
    F a = x.Square();
    F b = y.Square();
    F c = b.Square();
    F d = ((x + b).Square() - a - c).Double();
    F e = a.Double() + a;
    F f = e.Square();
    JacobianPoint out;
    out.x = f - d.Double();
    out.y = e * (d - out.x) - c.Double().Double().Double();
    out.z = (y * z).Double();
    return out;
  }

  JacobianPoint Add(const JacobianPoint& o) const {
    if (IsInfinity()) return o;
    if (o.IsInfinity()) return *this;
    F z1z1 = z.Square();
    F z2z2 = o.z.Square();
    F u1 = x * z2z2;
    F u2 = o.x * z1z1;
    F s1 = y * o.z * z2z2;
    F s2 = o.y * z * z1z1;
    if (u1 == u2) {
      if (s1 == s2) return Double();
      return Infinity();
    }
    F h = u2 - u1;
    F i = h.Double().Square();
    F j = h * i;
    F r = (s2 - s1).Double();
    F v = u1 * i;
    JacobianPoint out;
    out.x = r.Square() - j - v.Double();
    out.y = r * (v - out.x) - (s1 * j).Double();
    out.z = ((z + o.z).Square() - z1z1 - z2z2) * h;
    return out;
  }

  /// Mixed addition (madd-2007-bl, z2 = 1): 7M + 4S vs the 11M + 5S of the
  /// general add. The bucket suffix sums of MultiScalarMul live here.
  JacobianPoint AddAffine(const AffinePoint<F>& o) const {
    if (o.infinity) return *this;
    if (IsInfinity()) return FromAffine(o);
    F z1z1 = z.Square();
    F u2 = o.x * z1z1;
    F s2 = o.y * z * z1z1;
    if (u2 == x) {
      if (s2 == y) return Double();
      return Infinity();
    }
    F h = u2 - x;
    F hh = h.Square();
    F i = hh.Double().Double();
    F j = h * i;
    F r = (s2 - y).Double();
    F v = x * i;
    JacobianPoint out;
    out.x = r.Square() - j - v.Double();
    out.y = r * (v - out.x) - (y * j).Double();
    out.z = (z + h).Square() - z1z1 - hh;
    return out;
  }

  /// Scalar multiplication, binary double-and-add over the canonical scalar.
  JacobianPoint ScalarMul(const U256& k) const {
    JacobianPoint acc = Infinity();
    for (int i = k.BitLength() - 1; i >= 0; --i) {
      acc = acc.Double();
      if (k.Bit(i)) acc = acc.Add(*this);
    }
    return acc;
  }

  bool Equal(const JacobianPoint& o) const {
    // Compare in the projective sense: x1 z2^2 == x2 z1^2, y1 z2^3 == y2 z1^3.
    if (IsInfinity() || o.IsInfinity()) return IsInfinity() == o.IsInfinity();
    F z1z1 = z.Square();
    F z2z2 = o.z.Square();
    return x * z2z2 == o.x * z1z1 && y * o.z * z2z2 == o.y * z * z1z1;
  }
};

/// True iff y^2 == x^3 + b.
template <typename F>
bool OnCurve(const AffinePoint<F>& p, const F& b) {
  if (p.infinity) return true;
  return p.y.Square() == p.x.Square() * p.x + b;
}

/// Invert every element of xs[0..n) — all non-zero — at the cost of a single
/// field inversion plus 3n multiplications (Montgomery's simultaneous
/// inversion). `scratch` is caller-provided so hot loops can reuse it.
template <typename F>
void BatchInvert(F* xs, size_t n, std::vector<F>* scratch) {
  if (n == 0) return;
  scratch->resize(n);
  F acc = F::One();
  for (size_t i = 0; i < n; ++i) {
    (*scratch)[i] = acc;
    acc = acc * xs[i];
  }
  F inv = acc.Inverse();
  for (size_t i = n; i-- > 0;) {
    F tmp = xs[i];
    xs[i] = inv * (*scratch)[i];
    inv = inv * tmp;
  }
}

namespace msm_internal {

/// Decompose s into signed base-2^c digits: s == sum_w out[w*stride] * 2^(cw)
/// with every digit in [-2^(c-1), 2^(c-1)]. Limb-windowed extraction — no
/// per-bit probing. `num_windows * c` must exceed s.BitLength() so the final
/// borrow carry has somewhere to land.
inline void SignedDigits(const U256& s, int c, int num_windows, size_t stride,
                         int32_t* out) {
  const uint64_t mask = (uint64_t{1} << c) - 1;
  const uint64_t half = uint64_t{1} << (c - 1);
  uint64_t carry = 0;
  for (int w = 0; w < num_windows; ++w) {
    int bit = w * c;
    uint64_t raw = 0;
    if (bit < 256) {
      int li = bit >> 6;
      int off = bit & 63;
      raw = s.limb[static_cast<size_t>(li)] >> off;
      // c <= 16 so a straddling window implies off >= 49 > 0 — the shift by
      // (64 - off) below cannot be a shift by 64.
      if (off + c > 64 && li < 3) {
        raw |= s.limb[static_cast<size_t>(li) + 1] << (64 - off);
      }
      raw &= mask;
    }
    raw += carry;
    if (raw > half) {
      out[static_cast<size_t>(w) * stride] =
          static_cast<int32_t>(raw) - (int32_t{1} << c);
      carry = 1;
    } else {
      out[static_cast<size_t>(w) * stride] = static_cast<int32_t>(raw);
      carry = 0;
    }
  }
  assert(carry == 0);
}

/// Window width minimizing the estimated work, in field-multiplication
/// units: each window costs ~10 per point (digit handling, placement, its
/// share of pair additions) and ~28 per bucket (the two suffix-sum adds).
inline int ChooseWindowSize(size_t n, int max_bits) {
  int best_c = 2;
  uint64_t best = ~uint64_t{0};
  for (int c = 2; c <= 16; ++c) {
    uint64_t windows = static_cast<uint64_t>((max_bits + c - 1) / c) + 1;
    uint64_t cost =
        windows * (static_cast<uint64_t>(n) * 10 + (uint64_t{1} << (c - 1)) * 28);
    if (cost < best) {
      best = cost;
      best_c = c;
    }
  }
  return best_c;
}

/// Per-thread scratch reused across the windows of one MSM.
template <typename F>
struct MsmScratch {
  enum class PairKind : uint8_t { kAdd, kDouble, kDirect, kInfinity };
  struct PairJob {
    AffinePoint<F> a, b;  // operand copies (results are written in place)
    uint32_t out;         // destination slot in pts
    PairKind kind;
  };

  std::vector<uint32_t> starts;  // bucket segment offsets into pts
  std::vector<uint32_t> cursor;  // fill cursors / remaining lengths
  std::vector<uint32_t> len;     // live entries per bucket segment
  std::vector<AffinePoint<F>> pts;
  std::vector<PairJob> jobs;
  std::vector<F> denoms, inv_scratch;
};

/// Batch-affine pair additions only pay for themselves once enough pairs
/// share one field inversion (inversion ~ 290 Fp muls). Fp2's inversion is
/// relatively cheaper (one Fp inversion amortized over ~5x costlier muls),
/// so G2 flips to batch-affine earlier.
template <typename F>
constexpr size_t MinBatchPairs() {
  return sizeof(F) <= sizeof(U256) ? 64 : 24;
}

/// Sum of digit[i] * bases[i] over one signed-digit window, via bucket
/// accumulation: counting-sort the points into 2^(c-1) bucket segments,
/// shrink dense segments with batch-affine pairwise adds (one inversion per
/// round), then fold what remains with Jacobian mixed adds inside the
/// standard suffix-sum.
template <typename F>
JacobianPoint<F> MsmWindowSum(const std::vector<AffinePoint<F>>& bases,
                              const int32_t* digits, size_t n, int c,
                              MsmScratch<F>* s) {
  using Point = JacobianPoint<F>;
  using Scratch = MsmScratch<F>;
  using PairKind = typename Scratch::PairKind;
  const size_t half = size_t{1} << (c - 1);

  s->cursor.assign(half + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    int32_t d = digits[i];
    if (d != 0) {
      ++s->cursor[static_cast<size_t>(d < 0 ? -d : d)];
      ++total;
    }
  }
  if (total == 0) return Point::Infinity();

  // Counting sort into per-bucket segments of pts.
  s->starts.resize(half + 1);
  s->len.resize(half + 1);
  uint32_t offset = 0;
  for (size_t b = 1; b <= half; ++b) {
    s->starts[b] = offset;
    s->len[b] = s->cursor[b];
    offset += s->cursor[b];
    s->cursor[b] = s->starts[b];
  }
  s->pts.resize(total);
  for (size_t i = 0; i < n; ++i) {
    int32_t d = digits[i];
    if (d == 0) continue;
    size_t b = static_cast<size_t>(d < 0 ? -d : d);
    s->pts[s->cursor[b]++] = d < 0 ? bases[i].Neg() : bases[i];
  }

  // Batch-affine reduction rounds: halve every dense bucket segment while
  // the round is big enough to amortize its one inversion.
  for (;;) {
    // Cheap pre-check on segment lengths so the terminating round doesn't
    // pay for building (and discarding) the pair jobs.
    size_t potential_pairs = 0;
    for (size_t b = 1; b <= half; ++b) potential_pairs += s->len[b] / 2;
    if (potential_pairs < MinBatchPairs<F>()) break;

    s->jobs.clear();
    s->denoms.clear();
    size_t invertible = 0;
    for (size_t b = 1; b <= half; ++b) {
      uint32_t len = s->len[b];
      if (len < 2) continue;
      uint32_t start = s->starts[b];
      for (uint32_t t = 0; t + 1 < len; t += 2) {
        typename Scratch::PairJob job;
        job.a = s->pts[start + t];
        job.b = s->pts[start + t + 1];
        job.out = start + t / 2;
        if (job.a.infinity) {
          job.kind = PairKind::kDirect;
          job.a = job.b;
        } else if (job.b.infinity) {
          job.kind = PairKind::kDirect;
        } else if (job.a.x == job.b.x) {
          if (job.a.y == job.b.y && !job.a.y.IsZero()) {
            job.kind = PairKind::kDouble;
            s->denoms.push_back(job.a.y.Double());
            ++invertible;
          } else {
            job.kind = PairKind::kInfinity;  // P + (-P)
          }
        } else {
          job.kind = PairKind::kAdd;
          s->denoms.push_back(job.b.x - job.a.x);
          ++invertible;
        }
        s->jobs.push_back(job);
      }
    }
    if (invertible < MinBatchPairs<F>()) break;
    BatchInvert(s->denoms.data(), s->denoms.size(), &s->inv_scratch);

    size_t d = 0;
    for (const typename Scratch::PairJob& job : s->jobs) {
      AffinePoint<F>& out = s->pts[job.out];
      switch (job.kind) {
        case PairKind::kDirect:
          out = job.a;
          break;
        case PairKind::kInfinity:
          out = AffinePoint<F>();
          break;
        case PairKind::kDouble: {
          F xx = job.a.x.Square();
          F lam = (xx.Double() + xx) * s->denoms[d++];
          F x3 = lam.Square() - job.a.x.Double();
          out = AffinePoint<F>(x3, lam * (job.a.x - x3) - job.a.y);
          break;
        }
        case PairKind::kAdd: {
          F lam = (job.b.y - job.a.y) * s->denoms[d++];
          F x3 = lam.Square() - job.a.x - job.b.x;
          out = AffinePoint<F>(x3, lam * (job.a.x - x3) - job.a.y);
          break;
        }
      }
    }
    // Compact: results occupy the front of each segment, odd leftovers slide
    // up behind them.
    for (size_t b = 1; b <= half; ++b) {
      uint32_t len = s->len[b];
      if (len < 2) continue;
      uint32_t start = s->starts[b];
      uint32_t pairs = len / 2;
      if (len & 1) s->pts[start + pairs] = s->pts[start + len - 1];
      s->len[b] = pairs + (len & 1);
    }
  }

  // Suffix sums: running = sum_{j >= b} bucket_j, window = sum_b running.
  // Segments the reduction left with multiple entries fold into `running`
  // with mixed adds — identical algebra, no special case.
  Point running = Point::Infinity();
  Point window_sum = Point::Infinity();
  for (size_t b = half; b >= 1; --b) {
    uint32_t start = s->starts[b];
    for (uint32_t k = 0; k < s->len[b]; ++k) {
      running = running.AddAffine(s->pts[start + k]);
    }
    window_sum = window_sum.Add(running);
  }
  return window_sum;
}

/// Horner-combine the window sums of [w_lo, w_hi): result is
/// sum_{w in range} S_w * 2^(c * (w - w_lo)). `digits` is window-major
/// (digits[w * n + i] = digit of scalar i in window w).
template <typename F>
JacobianPoint<F> MsmWindowRange(const std::vector<AffinePoint<F>>& bases,
                                const std::vector<int32_t>& digits, size_t n,
                                int c, int w_lo, int w_hi) {
  using Point = JacobianPoint<F>;
  MsmScratch<F> scratch;
  Point total = Point::Infinity();
  for (int w = w_hi - 1; w >= w_lo; --w) {
    if (!total.IsInfinity()) {
      for (int k = 0; k < c; ++k) total = total.Double();
    }
    total = total.Add(
        MsmWindowSum(bases, digits.data() + static_cast<size_t>(w) * n, n, c,
                     &scratch));
  }
  return total;
}

}  // namespace msm_internal

/// Multi-scalar multiplication (Pippenger buckets). Computes
/// sum_i scalars[i] * bases[i]; used heavily by the accumulator layer when
/// evaluating committed polynomials against the public key.
///
/// Signed base-2^c digits halve the bucket count; the bucket phase shrinks
/// dense buckets with batch-affine additions (Montgomery simultaneous
/// inversion) before the Jacobian suffix sums.
template <typename F>
JacobianPoint<F> MultiScalarMul(const std::vector<AffinePoint<F>>& bases,
                                const std::vector<U256>& scalars) {
  assert(bases.size() == scalars.size());
  using Point = JacobianPoint<F>;
  size_t n = bases.size();
  if (n == 0) return Point::Infinity();
  if (n == 1) return Point::FromAffine(bases[0]).ScalarMul(scalars[0]);

  int max_bits = 0;
  for (const U256& s : scalars) {
    int b = s.BitLength();
    if (b > max_bits) max_bits = b;
  }
  if (max_bits == 0) return Point::Infinity();

  int c = msm_internal::ChooseWindowSize(n, max_bits);
  int num_windows = (max_bits + c - 1) / c + 1;  // +1 absorbs the top carry
  std::vector<int32_t> digits(static_cast<size_t>(num_windows) * n);
  for (size_t i = 0; i < n; ++i) {
    msm_internal::SignedDigits(scalars[i], c, num_windows, n, digits.data() + i);
  }
  return msm_internal::MsmWindowRange(bases, digits, n, c, 0, num_windows);
}

}  // namespace vchain::crypto

#endif  // VCHAIN_CRYPTO_CURVE_H_
