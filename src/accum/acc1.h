// Multiset accumulator, Construction 1 (paper §5.2.1; q-SDH based, after
// Papamanthou et al. [32]).
//
//   acc(X)            = g1^{P(X)(s)},  P(X)(Z) = prod_{x in X} (Z + x)
//   ProveDisjoint     = Bezout cofactors (Q1, Q2) of P(X1), P(X2) committed
//                       in G2: pi = (g2^{Q1(s)}, g2^{Q2(s)})
//   VerifyDisjoint    : e(acc(X1), F1) * e(acc(X2), F2) == e(g1, g2)
//
// (Type-3 mapping of the paper's symmetric-pairing description: stored
// digests live in G1, proof elements in G2; see DESIGN.md.)
//
// No digest/proof aggregation — that is Construction 2's extra power.

#ifndef VCHAIN_ACCUM_ACC1_H_
#define VCHAIN_ACCUM_ACC1_H_

#include <memory>
#include <span>
#include <string>

#include "accum/engine.h"
#include "accum/keys.h"
#include "accum/multiset.h"
#include "accum/polynomial.h"

namespace vchain::accum {

/// Prover work mode. `kHonest` computes commitments from served public-key
/// powers, which is what the paper's miner/SP cost figures measure.
/// `kTrustedFast` lets the oracle evaluate the committed value directly —
/// byte-identical results, used by tests and by benchmark phases whose cost
/// is not under measurement.
enum class ProverMode { kHonest, kTrustedFast };

class Acc1Engine {
 public:
  struct ObjectDigest {
    G1Affine point;
    bool operator==(const ObjectDigest&) const = default;
  };
  struct QueryDigest {
    G1Affine point;
    bool operator==(const QueryDigest&) const = default;
  };
  struct Proof {
    G2Affine f1, f2;
    bool operator==(const Proof&) const = default;
  };

  static constexpr bool kSupportsAggregation = false;

  Acc1Engine(std::shared_ptr<KeyOracle> oracle,
             ProverMode mode = ProverMode::kHonest)
      : oracle_(std::move(oracle)), mode_(mode) {}

  std::string Name() const { return "acc1"; }
  ProverMode mode() const { return mode_; }

  /// Identity: acc1 accumulates full 64-bit element ids (they embed
  /// injectively into Fr).
  uint64_t MapElement(Element e) const { return e; }

  ObjectDigest Digest(const Multiset& w) const;
  QueryDigest QueryDigestOf(const Multiset& clause) const;

  /// Fails with kInvalidArgument when the (mapped) multisets intersect.
  Result<Proof> ProveDisjoint(const Multiset& w, const Multiset& clause) const;

  bool VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                      const Proof& proof) const;

  /// One VerifyDisjoint per check. The proof points are untrusted G2 points
  /// that decoding checks only for lying on the twist, not for membership
  /// in the order-r subgroup, so the bilinearity a weighted product of
  /// checks relies on is not guaranteed for them: batching would be
  /// unsound.
  bool VerifyDisjointAll(
      std::span<const DisjointCheck<Acc1Engine>> checks) const {
    return VerifyEachDisjoint(*this, checks);
  }

  void SerializeDigest(const ObjectDigest& d, ByteWriter* w) const;
  Status DeserializeDigest(ByteReader* r, ObjectDigest* out) const;
  void SerializeProof(const Proof& p, ByteWriter* w) const;
  Status DeserializeProof(ByteReader* r, Proof* out) const;
  size_t DigestByteSize() const { return crypto::kG1SerializedSize; }
  size_t ProofByteSize() const { return 2 * crypto::kG2SerializedSize; }

  const std::shared_ptr<KeyOracle>& oracle() const { return oracle_; }

 private:
  /// Characteristic polynomial of the mapped multiset.
  Poly CharPoly(const Multiset& w) const;
  /// Commit a polynomial-in-s: honest = multiexp over pk powers,
  /// trusted = direct evaluation (identical group element).
  G1 CommitPolyG1(const Poly& p) const;
  G2 CommitPolyG2(const Poly& p) const;

  std::shared_ptr<KeyOracle> oracle_;
  ProverMode mode_;
};

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_ACC1_H_
