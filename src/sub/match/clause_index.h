// The clause-inverted index behind subscription matching.
//
// Pub/sub at scale inverts matching: instead of scanning every standing
// query per block (linear in subscriptions), the subscription manager
// indexes the *clauses* of the registered CNFs and lets the block's
// attributes drive lookups. Every transformed clause — a multiset of
// attribute elements — is interned once by content and posted under each of
// its engine-mapped element ids:
//
//   * numeric range predicates arrive as their dyadic cover (§5.3), so the
//     posting map doubles as a per-dimension interval tree laid out on the
//     dyadic grid: each cover element is a segment-tree node for an interval
//     of the domain, and a block value's root-to-leaf prefix path is exactly
//     the stabbing query that hits every registered interval containing it;
//   * keyword predicates post their (mapped) keyword elements — classic
//     posting lists.
//
// Everything is keyed by *mapped* ids, not raw elements, because the match
// relation the SP must reproduce bit-for-bit (core::MappedQueryView) runs in
// the engine's mapped universe — engines whose mapping folds the element
// space (acc2's universe reduction) make distinct raw elements collide, and
// an index keyed by raw values would miss those hits and diverge from
// per-query matching.
//
// Per block the matcher marks every mapped element of the block's root
// multiset (epoch-stamped, O(1) reset); a clause is "hit" iff some posting
// matched, which is exactly "the mapped multisets intersect". A query is a
// match candidate iff all of its clauses are hit; otherwise its exclusion
// clause is the first non-hit clause in MappedQueryView's wrap order
// (FindDisjointClauseFrom).
//
// Interning is refcounted: clauses shared by many subscriptions (the common
// case the paper's §7.1 BCIF exploits) cost one entry and one posting set
// total, and unsubscribing decrements instead of rebuilding. Content
// equality is exact (full multiset compare under the hash bucket), so two
// distinct clauses never alias.

#ifndef VCHAIN_SUB_MATCH_CLAUSE_INDEX_H_
#define VCHAIN_SUB_MATCH_CLAUSE_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "accum/multiset.h"
#include "common/status.h"

namespace vchain::sub {

class ClauseIndex {
 public:
  /// Intern `set` (the raw transformed clause) with its engine-mapped
  /// element ids (`mapped`: deduplicated — order irrelevant). Returns the
  /// clause id; re-interning identical content bumps a refcount and returns
  /// the existing id. `is_range` only feeds stats (range clauses are dyadic
  /// interval registrations, keyword clauses plain posting lists).
  uint32_t Intern(const accum::Multiset& set, std::vector<uint64_t> mapped,
                  bool is_range);

  /// Drop one reference; on the last release the clause and its postings
  /// are removed (ids are recycled).
  void Release(uint32_t clause_id);

  /// The raw clause multiset (for proofs: same bytes as the registering
  /// query's TransformedQuery clause, so proof-cache keys coincide).
  const accum::Multiset& SetOf(uint32_t clause_id) const {
    return clauses_[clause_id].set;
  }

  /// The clause's engine-mapped element ids, sorted ascending (the lazy
  /// matcher intersects these against mapped skip-entry multisets).
  const std::vector<uint64_t>& MappedOf(uint32_t clause_id) const {
    return clauses_[clause_id].mapped;
  }

  // --- per-block probe ------------------------------------------------------

  /// Start a new block epoch (invalidates all hit marks in O(1)).
  void BeginBlock() { ++epoch_; }

  /// Mark every clause posting `mapped_element`; called once per mapped
  /// element of the block's root multiset.
  void MarkElement(uint64_t mapped_element) {
    auto it = postings_.find(mapped_element);
    if (it == postings_.end()) return;
    for (uint32_t cid : it->second) clauses_[cid].hit_epoch = epoch_;
  }

  /// True iff a marked element belongs to the clause — i.e. the clause's
  /// mapped set intersects the block's mapped root multiset.
  bool IsHit(uint32_t clause_id) const {
    return clauses_[clause_id].hit_epoch == epoch_;
  }

  // --- stats ----------------------------------------------------------------

  size_t NumClauses() const { return live_clauses_; }
  size_t NumRangeClauses() const { return live_range_clauses_; }
  size_t NumPostings() const { return num_postings_; }

 private:
  struct Clause {
    accum::Multiset set;
    std::vector<uint64_t> mapped;
    uint64_t content_hash = 0;
    uint32_t refs = 0;
    uint64_t hit_epoch = 0;
    bool is_range = false;
  };

  static uint64_t HashSet(const accum::Multiset& set);

  std::vector<Clause> clauses_;
  std::vector<uint32_t> free_ids_;
  /// mapped element id -> interned clause ids containing it. One entry per
  /// *distinct clause*, not per subscriber — the whole point.
  std::unordered_map<uint64_t, std::vector<uint32_t>> postings_;
  /// content hash -> candidate ids (full compare resolves collisions).
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_content_;
  uint64_t epoch_ = 0;
  size_t live_clauses_ = 0;
  size_t live_range_clauses_ = 0;
  size_t num_postings_ = 0;
};

}  // namespace vchain::sub

#endif  // VCHAIN_SUB_MATCH_CLAUSE_INDEX_H_
