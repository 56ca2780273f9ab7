// The accumulator-engine concept and engine-generic helpers.
//
// Everything above this layer (chain ADS construction, query processing,
// verification, subscriptions) is templated on an `Engine` satisfying:
//
//   types   ObjectDigest, QueryDigest, Proof        (regular, ==, serde)
//   uint64_t       MapElement(Element) const
//   ObjectDigest   Digest(const Multiset&) const
//   QueryDigest    QueryDigestOf(const Multiset&) const
//   Result<Proof>  ProveDisjoint(const Multiset& w, const Multiset& clause)
//   bool           VerifyDisjoint(ObjectDigest, QueryDigest, Proof) const
//   bool           VerifyDisjointAll(span<const DisjointCheck<E>>) const
//   serde: SerializeDigest/DeserializeDigest/SerializeProof/DeserializeProof
//   static constexpr bool kSupportsAggregation
//   (if aggregation) SumDigests(vector<ObjectDigest>), SumProofs(vector<Proof>)
//
// Concrete models: Acc1Engine, Acc2Engine (BN254), MockAcc1Engine,
// MockAcc2Engine (transparent test doubles).
//
// Verification is batched: a verifier collects every disjointness check of
// one answer (one per proof-carrying VO node, skip step, exclusion or
// aggregated clause) and makes one VerifyDisjointAll call, true iff every
// check would pass VerifyDisjoint. acc2 folds the whole list into one
// pairing product (one Miller loop, one final exponentiation); acc1 and the
// mocks check one by one (VerifyEachDisjoint).
//
// Matching semantics: the protocol compares elements under the engine's
// universe mapping (`MapElement`), so a mismatch decision made by the SP is
// always provable and verifiable (see element.h).

#ifndef VCHAIN_ACCUM_ENGINE_H_
#define VCHAIN_ACCUM_ENGINE_H_

#include <concepts>
#include <span>
#include <unordered_set>
#include <vector>

#include "accum/multiset.h"

namespace vchain::accum {

/// One disjointness claim: the multiset behind `digest` shares no element
/// with the clause behind `clause`, witnessed by `proof`.
template <typename E>
struct DisjointCheck {
  typename E::ObjectDigest digest;
  typename E::QueryDigest clause;
  typename E::Proof proof;
};

template <typename E>
concept AccumulatorEngine = requires(const E e, const Multiset& m,
                                     typename E::ObjectDigest od,
                                     typename E::QueryDigest qd,
                                     typename E::Proof pf,
                                     std::span<const DisjointCheck<E>> checks,
                                     ByteWriter* w, ByteReader* r) {
  { e.MapElement(Element{}) } -> std::convertible_to<uint64_t>;
  { e.Digest(m) } -> std::same_as<typename E::ObjectDigest>;
  { e.QueryDigestOf(m) } -> std::same_as<typename E::QueryDigest>;
  { e.ProveDisjoint(m, m) } -> std::same_as<Result<typename E::Proof>>;
  { e.VerifyDisjoint(od, qd, pf) } -> std::same_as<bool>;
  { e.VerifyDisjointAll(checks) } -> std::same_as<bool>;
  { E::kSupportsAggregation } -> std::convertible_to<bool>;
  e.SerializeDigest(od, w);
  e.SerializeProof(pf, w);
};

/// VerifyDisjointAll by one VerifyDisjoint per check, for engines whose
/// checks cannot be soundly combined.
template <typename Engine>
bool VerifyEachDisjoint(const Engine& engine,
                        std::span<const DisjointCheck<Engine>> checks) {
  for (const DisjointCheck<Engine>& c : checks) {
    if (!engine.VerifyDisjoint(c.digest, c.clause, c.proof)) return false;
  }
  return true;
}

/// True iff `w` and `clause` share an element under the engine's mapping.
/// This — not raw intersection — is the protocol's match relation.
template <typename Engine>
bool MappedIntersects(const Engine& engine, const Multiset& w,
                      const Multiset& clause) {
  std::unordered_set<uint64_t> mapped;
  mapped.reserve(clause.DistinctSize());
  for (const Multiset::Entry& e : clause.entries()) {
    mapped.insert(engine.MapElement(e.element));
  }
  for (const Multiset::Entry& e : w.entries()) {
    if (mapped.count(engine.MapElement(e.element))) return true;
  }
  return false;
}

}  // namespace vchain::accum

#endif  // VCHAIN_ACCUM_ENGINE_H_
