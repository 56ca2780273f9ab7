// Accumulator trusted setup and the key oracle.
//
// Both accumulator constructions need powers of a secret s in the exponent:
//   acc1 (q-SDH):  pk = (g^{s^0}, ..., g^{s^N})        N = max multiset size
//   acc2 (q-DHE):  pk = (g^{s^j}) for j in [0, 2q-2] \ {q},  q = universe size
//
// The paper notes (§5.2.2) that publishing acc2's full key is impractical for
// hash-sized universes and proposes a trusted oracle (TTP or SGX enclave)
// that owns s and answers public-key requests on demand. `KeyOracle` plays
// that role here. It serves memoized powers of s in G1/G2 one at a time, and
// unmemoized G1 powers in batches: acc2's disjointness proof needs one power
// per cross term, which rarely recur, so `G1Powers` computes them in chunks
// on the shared pool with one field inversion per chunk. Every power is a
// fixed-base multiplication over a table of affine multiples of the
// generator. The oracle also exposes explicitly-named *trusted-path*
// evaluation helpers used for fast test fixtures and for skipping miner work
// that a benchmark is not measuring; honest-path code never touches them.

#ifndef VCHAIN_ACCUM_KEYS_H_
#define VCHAIN_ACCUM_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "crypto/bn254.h"
#include "crypto/pairing.h"

namespace vchain::accum {

using crypto::Fr;
using crypto::G1;
using crypto::G1Affine;
using crypto::G2;
using crypto::G2Affine;
using crypto::U256;

/// Parameters fixed at setup time.
struct AccParams {
  /// acc2 universe is [1, 2^universe_bits - 1]; powers go up to 2^(bits+1)-2.
  uint32_t universe_bits = 16;

  uint64_t UniverseSize() const { return uint64_t{1} << universe_bits; }
};

/// Precomputed 4-bit-window fixed-base table for fast g^k: at most 64 mixed
/// additions per multiplication, no doublings. Entries are affine
/// (normalized once, with one inversion, at construction).
template <typename F>
class FixedBaseTable {
 public:
  using Affine = crypto::AffinePoint<F>;
  using Point = crypto::JacobianPoint<F>;

  explicit FixedBaseTable(const Affine& base);

  /// base * k.
  Point Mul(const U256& k) const;

 private:
  // table_[15w + d-1] = base * (d << (4w)), w in [0, 64), d in [1, 15].
  std::vector<Affine> table_;
};

/// The trusted oracle: owns the setup secret, serves public-key powers.
class KeyOracle {
 public:
  /// Deterministic setup from a seed (tests/benches). A deployment would
  /// sample the secret from an entropy source or an MPC ceremony.
  static std::shared_ptr<KeyOracle> Create(uint64_t seed,
                                           const AccParams& params = {});

  const AccParams& params() const { return params_; }

  // --- public-key interface (what an untrusted party may request) ---------

  /// g1^{s^j} / g2^{s^j}, memoized, thread-safe.
  G1Affine G1PowerOf(uint64_t j);
  G2Affine G2PowerOf(uint64_t j);

  /// g1^{s^j} for every j of `exponents`, in order (repeats allowed), with
  /// no memoization. Used for acc2's disjointness cross terms x_i + q - y_j,
  /// which rarely recur — memoizing them would grow the cache by |X|*|Y|
  /// entries per proof without amortization. Works in chunks of
  /// kPowerChunk exponents, each normalized with one batched inversion; more
  /// than one chunk runs on ThreadPool::Shared() (caller-participating, so
  /// it is safe from inside a pool task). Thread-safe.
  std::vector<G1Affine> G1Powers(const std::vector<uint64_t>& exponents) const;
  static constexpr size_t kPowerChunk = 16;

  /// Eagerly materialize consecutive powers [0, n] (acc1 proving needs a
  /// dense prefix; this amortizes the lock).
  void WarmupG1(uint64_t n);
  void WarmupG2(uint64_t n);

  // --- trusted-path helpers (oracle-internal; see file comment) -----------

  /// s^e in Fr.
  Fr SecretPow(uint64_t e) const;
  /// Evaluate a polynomial-in-s value directly: g1^v / g2^v.
  G1 CommitG1(const Fr& v) const;
  G2 CommitG2(const Fr& v) const;
  /// The secret itself — used only by trusted-path digest evaluation and by
  /// security tests that play the adversary's game with known randomness.
  const Fr& secret() const { return s_; }

 private:
  KeyOracle(const Fr& s, const AccParams& params);

  AccParams params_;
  Fr s_;
  FixedBaseTable<crypto::Fp> g1_table_;
  FixedBaseTable<crypto::Fp2> g2_table_;

  std::mutex mu_;
  // Dense prefix caches (acc1-style consecutive powers)...
  std::vector<G1Affine> g1_dense_;
  std::vector<Fr> s_dense_;  // s^j alongside, to extend cheaply
  std::vector<G2Affine> g2_dense_;
  // ...plus sparse memo for acc2's scattered indices.
  std::unordered_map<uint64_t, G1Affine> g1_sparse_;
  std::unordered_map<uint64_t, G2Affine> g2_sparse_;
};

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_KEYS_H_
