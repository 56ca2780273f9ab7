#include "accum/keys.h"

#include <algorithm>
#include <array>

#include "common/rand.h"
#include "common/thread_pool.h"

namespace vchain::accum {

namespace {

/// Normalize pts[0..n) to affine with one field inversion (Montgomery's
/// simultaneous inversion over the z coordinates; infinity stays infinity).
template <typename F>
void BatchToAffine(const crypto::JacobianPoint<F>* pts, size_t n,
                   crypto::AffinePoint<F>* out) {
  std::vector<F> zs;
  zs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!pts[i].IsInfinity()) zs.push_back(pts[i].z);
  }
  std::vector<F> scratch;
  crypto::BatchInvert(zs.data(), zs.size(), &scratch);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pts[i].IsInfinity()) {
      out[i] = crypto::AffinePoint<F>();
      continue;
    }
    const F& zi = zs[k++];
    F zi2 = zi.Square();
    out[i] = crypto::AffinePoint<F>(pts[i].x * zi2, pts[i].y * zi2 * zi);
  }
}

}  // namespace

template <typename F>
FixedBaseTable<F>::FixedBaseTable(const Affine& base) {
  std::vector<Point> jac(64 * 15);
  Point cur = Point::FromAffine(base);
  for (size_t w = 0; w < 64; ++w) {
    // cur == base * 2^{4w}; fill d*cur for d = 1..15.
    Point* row = &jac[w * 15];
    row[0] = cur;
    for (int d = 1; d < 15; ++d) {
      row[d] = row[d - 1].Add(cur);
    }
    cur = row[14].Add(cur);  // 16 * cur
  }
  table_.resize(jac.size());
  BatchToAffine(jac.data(), jac.size(), table_.data());
}

template <typename F>
typename FixedBaseTable<F>::Point FixedBaseTable<F>::Mul(const U256& k) const {
  Point acc = Point::Infinity();
  for (int w = 0; w < 64; ++w) {
    uint64_t digit = (k.limb[w / 16] >> (4 * (w % 16))) & 0xF;
    if (digit != 0) {
      acc = acc.AddAffine(table_[15 * w + digit - 1]);
    }
  }
  return acc;
}

template class FixedBaseTable<crypto::Fp>;
template class FixedBaseTable<crypto::Fp2>;

KeyOracle::KeyOracle(const Fr& s, const AccParams& params)
    : params_(params),
      s_(s),
      g1_table_(crypto::G1Generator()),
      g2_table_(crypto::G2Generator()) {
  g1_dense_.push_back(crypto::G1Generator());
  g2_dense_.push_back(crypto::G2Generator());
  s_dense_.push_back(Fr::One());
}

std::shared_ptr<KeyOracle> KeyOracle::Create(uint64_t seed,
                                             const AccParams& params) {
  Rng rng(seed);
  Fr s = Fr::FromU256Reduce(U256(rng.Next(), rng.Next(), rng.Next(), 0));
  if (s.IsZero()) s = Fr::One();
  return std::shared_ptr<KeyOracle>(new KeyOracle(s, params));
}

Fr KeyOracle::SecretPow(uint64_t e) const {
  Fr acc = Fr::One();
  Fr base = s_;
  while (e != 0) {
    if (e & 1) acc *= base;
    base = base.Square();
    e >>= 1;
  }
  return acc;
}

G1 KeyOracle::CommitG1(const Fr& v) const {
  return g1_table_.Mul(v.ToCanonical());
}

G2 KeyOracle::CommitG2(const Fr& v) const {
  return g2_table_.Mul(v.ToCanonical());
}

G1Affine KeyOracle::G1PowerOf(uint64_t j) {
  std::lock_guard<std::mutex> lock(mu_);
  if (j < g1_dense_.size()) return g1_dense_[j];
  auto it = g1_sparse_.find(j);
  if (it != g1_sparse_.end()) return it->second;
  G1Affine p = CommitG1(SecretPow(j)).ToAffine();
  g1_sparse_.emplace(j, p);
  return p;
}

std::vector<G1Affine> KeyOracle::G1Powers(
    const std::vector<uint64_t>& exponents) const {
  const size_t n = exponents.size();
  std::vector<G1Affine> out(n);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * kPowerChunk;
    const size_t len = std::min(kPowerChunk, n - begin);
    std::array<G1, kPowerChunk> pts;
    for (size_t i = 0; i < len; ++i) {
      pts[i] = CommitG1(SecretPow(exponents[begin + i]));
    }
    BatchToAffine(pts.data(), len, &out[begin]);
  };
  const size_t chunks = (n + kPowerChunk - 1) / kPowerChunk;
  ThreadPool::Shared().ParallelFor(chunks, ThreadPool::DefaultParallelism(),
                                   run_chunk);
  return out;
}

G2Affine KeyOracle::G2PowerOf(uint64_t j) {
  std::lock_guard<std::mutex> lock(mu_);
  if (j < g2_dense_.size()) return g2_dense_[j];
  auto it = g2_sparse_.find(j);
  if (it != g2_sparse_.end()) return it->second;
  G2Affine p = CommitG2(SecretPow(j)).ToAffine();
  g2_sparse_.emplace(j, p);
  return p;
}

void KeyOracle::WarmupG1(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (s_dense_.size() <= n + 1) {
    s_dense_.push_back(s_dense_.back() * s_);
  }
  while (g1_dense_.size() <= n) {
    g1_dense_.push_back(CommitG1(s_dense_[g1_dense_.size()]).ToAffine());
  }
}

void KeyOracle::WarmupG2(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (s_dense_.size() <= n + 1) {
    s_dense_.push_back(s_dense_.back() * s_);
  }
  while (g2_dense_.size() <= n) {
    g2_dense_.push_back(CommitG2(s_dense_[g2_dense_.size()]).ToAffine());
  }
}

}  // namespace vchain::accum
