// Multiset accumulator, Construction 2 (paper §5.2.2; q-DHE based, after
// Zhang et al. [35]).
//
// Elements live in a bounded universe [1, q-1] (q = 2^universe_bits); the
// 64-bit protocol element ids are folded into it by MapElement. With
//   A(X)(s) = sum_{x in X} m_x s^x        B(X)(s) = sum_{x in X} m_x s^{q-x}
// the scheme is
//   stored digest     dA(X) = g1^{A(X)(s)}            (G1, 32 bytes)
//   query-side digest dB(Y) = g2^{B(Y)(s)}            (recomputed by verifier)
//   ProveDisjoint     pi    = g1^{A(X)(s) * B(Y)(s)}  (exponents skip s^q
//                             exactly when X and Y are disjoint)
//   VerifyDisjoint    e(dA(X), dB(Y)) == e(pi, g2)
//
// VerifyDisjointAll checks k such equations at once with the small-exponents
// batch test: with weights r_0 = 1 and r_i (i >= 1) 128-bit odd scalars
// derived by SHA-256 from the whole check list,
//   prod_C e(sum_{i: C_i = C} r_i dA_i, C) * e(-sum_i r_i pi_i, g2) == 1,
// one pair per distinct clause digest C plus one for the proofs: one
// multi-Miller loop and one final exponentiation per list. This is sound
// because every untrusted input (digest, proof) is a G1 point that decoding
// checks is on the curve, BN254's G1 has cofactor 1 (so every such point is
// in the order-r group), and the clause digests are the verifier's own. A
// list with a failing check passes with probability <= 2^-127 for each list
// the prover tries. With k = 1 the product is exactly VerifyDisjoint's.
//
// The extra primitives the paper's online batching (§6.3) and lazy
// authentication (§7.2) build on:
//   Sum(d1..dn)       = product of dA's  == digest of the multiset sum
//   ProofSum(p1..pn)  = product of pi's  (requires a common query side Y)

#ifndef VCHAIN_ACCUM_ACC2_H_
#define VCHAIN_ACCUM_ACC2_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accum/acc1.h"  // ProverMode
#include "accum/engine.h"
#include "accum/keys.h"
#include "accum/multiset.h"

namespace vchain::accum {

class Acc2Engine {
 public:
  struct ObjectDigest {
    G1Affine point;
    bool operator==(const ObjectDigest&) const = default;
  };
  struct QueryDigest {
    G2Affine point;
    bool operator==(const QueryDigest&) const = default;
  };
  struct Proof {
    G1Affine pi;
    bool operator==(const Proof&) const = default;
  };

  static constexpr bool kSupportsAggregation = true;

  Acc2Engine(std::shared_ptr<KeyOracle> oracle,
             ProverMode mode = ProverMode::kHonest)
      : oracle_(std::move(oracle)), mode_(mode) {}

  std::string Name() const { return "acc2"; }
  ProverMode mode() const { return mode_; }

  /// Fold a 64-bit element id into the accumulator universe [1, q-1].
  uint64_t MapElement(Element e) const {
    return (e % (oracle_->params().UniverseSize() - 1)) + 1;
  }

  ObjectDigest Digest(const Multiset& w) const;
  QueryDigest QueryDigestOf(const Multiset& clause) const;

  Result<Proof> ProveDisjoint(const Multiset& w, const Multiset& clause) const;

  bool VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                      const Proof& proof) const;

  /// True iff every check passes VerifyDisjoint, up to the batch test's
  /// 2^-127 soundness error (see the header comment); one pairing product.
  bool VerifyDisjointAll(
      std::span<const DisjointCheck<Acc2Engine>> checks) const;

  /// The batch weights of `checks`: r_0 = 1, and r_i for i >= 1 the first
  /// 128 bits of SHA-256(tag | every check's serialized digest, clause
  /// digest and proof | i), forced odd. Deterministic; no RNG state.
  static std::vector<U256> BatchWeights(
      std::span<const DisjointCheck<Acc2Engine>> checks);

  /// acc(X1 + ... + Xn) from the individual digests (multiset sum).
  ObjectDigest SumDigests(const std::vector<ObjectDigest>& digests) const;
  /// Aggregate proofs that share the same query side.
  Proof SumProofs(const std::vector<Proof>& proofs) const;

  void SerializeDigest(const ObjectDigest& d, ByteWriter* w) const;
  Status DeserializeDigest(ByteReader* r, ObjectDigest* out) const;
  void SerializeProof(const Proof& p, ByteWriter* w) const;
  Status DeserializeProof(ByteReader* r, Proof* out) const;
  size_t DigestByteSize() const { return crypto::kG1SerializedSize; }
  size_t ProofByteSize() const { return crypto::kG1SerializedSize; }

  const std::shared_ptr<KeyOracle>& oracle() const { return oracle_; }

 private:
  /// The multiset with ids folded into the universe (counts merged on
  /// collision).
  Multiset MapMultiset(const Multiset& w) const;

  std::shared_ptr<KeyOracle> oracle_;
  ProverMode mode_;
};

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_ACC2_H_
