// Mock accumulator engines.
//
// These satisfy the same engine concept as Acc1Engine / Acc2Engine but
// replace every group element by its *exponent* in Fr and the pairing by a
// field multiplication. All algebraic identities the protocol relies on hold
// exactly, while operations cost nanoseconds instead of milliseconds — the
// protocol layers (indexes, query processing, subscriptions) are
// property-tested against these engines with far larger inputs than the real
// pairing would allow. Obviously *not* hiding: anyone can read the exponent,
// so the mocks provide zero security. Test-only.

#ifndef VCHAIN_ACCUM_MOCK_H_
#define VCHAIN_ACCUM_MOCK_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accum/acc1.h"
#include "accum/engine.h"
#include "accum/keys.h"
#include "accum/multiset.h"
#include "accum/polynomial.h"

namespace vchain::accum {

/// Transparent analogue of Construction 1: digest = P(X)(s) in Fr,
/// proof = (Q1(s), Q2(s)); verification checks the Bezout identity
/// P1(s)Q1(s) + P2(s)Q2(s) == 1.
class MockAcc1Engine {
 public:
  struct ObjectDigest {
    Fr value;
    bool operator==(const ObjectDigest&) const = default;
  };
  struct QueryDigest {
    Fr value;
    bool operator==(const QueryDigest&) const = default;
  };
  struct Proof {
    Fr f1, f2;
    bool operator==(const Proof&) const = default;
  };

  static constexpr bool kSupportsAggregation = false;

  explicit MockAcc1Engine(std::shared_ptr<KeyOracle> oracle)
      : oracle_(std::move(oracle)) {}

  std::string Name() const { return "mock-acc1"; }
  uint64_t MapElement(Element e) const { return e; }

  ObjectDigest Digest(const Multiset& w) const {
    return ObjectDigest{EvalCharPoly(w)};
  }
  QueryDigest QueryDigestOf(const Multiset& clause) const {
    return QueryDigest{EvalCharPoly(clause)};
  }

  Result<Proof> ProveDisjoint(const Multiset& w, const Multiset& clause) const;

  bool VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                      const Proof& p) const {
    return dw.value * p.f1 + dc.value * p.f2 == Fr::One();
  }
  bool VerifyDisjointAll(
      std::span<const DisjointCheck<MockAcc1Engine>> checks) const {
    return VerifyEachDisjoint(*this, checks);
  }

  void SerializeDigest(const ObjectDigest& d, ByteWriter* w) const;
  Status DeserializeDigest(ByteReader* r, ObjectDigest* out) const;
  void SerializeProof(const Proof& p, ByteWriter* w) const;
  Status DeserializeProof(ByteReader* r, Proof* out) const;
  size_t DigestByteSize() const { return 32; }
  size_t ProofByteSize() const { return 64; }

  const std::shared_ptr<KeyOracle>& oracle() const { return oracle_; }

 private:
  Fr EvalCharPoly(const Multiset& w) const;

  std::shared_ptr<KeyOracle> oracle_;
};

/// Transparent analogue of Construction 2 with Sum/ProofSum support:
/// digest = A(X)(s), query digest = B(Y)(s), proof = A*B; verification
/// checks A(X)(s) * B(Y)(s) == pi.
class MockAcc2Engine {
 public:
  struct ObjectDigest {
    Fr value;
    bool operator==(const ObjectDigest&) const = default;
  };
  struct QueryDigest {
    Fr value;
    bool operator==(const QueryDigest&) const = default;
  };
  struct Proof {
    Fr pi;
    bool operator==(const Proof&) const = default;
  };

  static constexpr bool kSupportsAggregation = true;

  explicit MockAcc2Engine(std::shared_ptr<KeyOracle> oracle)
      : oracle_(std::move(oracle)) {}

  std::string Name() const { return "mock-acc2"; }
  uint64_t MapElement(Element e) const {
    return (e % (oracle_->params().UniverseSize() - 1)) + 1;
  }

  ObjectDigest Digest(const Multiset& w) const { return ObjectDigest{EvalA(w)}; }
  QueryDigest QueryDigestOf(const Multiset& clause) const {
    return QueryDigest{EvalB(clause)};
  }

  Result<Proof> ProveDisjoint(const Multiset& w, const Multiset& clause) const;

  bool VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                      const Proof& p) const {
    return dw.value * dc.value == p.pi;
  }
  bool VerifyDisjointAll(
      std::span<const DisjointCheck<MockAcc2Engine>> checks) const {
    return VerifyEachDisjoint(*this, checks);
  }

  ObjectDigest SumDigests(const std::vector<ObjectDigest>& digests) const {
    Fr acc = Fr::Zero();
    for (const ObjectDigest& d : digests) acc += d.value;
    return ObjectDigest{acc};
  }
  Proof SumProofs(const std::vector<Proof>& proofs) const {
    Fr acc = Fr::Zero();
    for (const Proof& p : proofs) acc += p.pi;
    return Proof{acc};
  }

  void SerializeDigest(const ObjectDigest& d, ByteWriter* w) const;
  Status DeserializeDigest(ByteReader* r, ObjectDigest* out) const;
  void SerializeProof(const Proof& p, ByteWriter* w) const;
  Status DeserializeProof(ByteReader* r, Proof* out) const;
  size_t DigestByteSize() const { return 32; }
  size_t ProofByteSize() const { return 32; }

  const std::shared_ptr<KeyOracle>& oracle() const { return oracle_; }

 private:
  Fr EvalA(const Multiset& w) const;
  Fr EvalB(const Multiset& w) const;

  std::shared_ptr<KeyOracle> oracle_;
};

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_MOCK_H_
