// Light-node verification of subscription notifications and lazy batches
// (user side of §7).
//
// A `SubscriptionSession` tracks, per registered query, the next block
// height for which evidence is still owed, so that a silent or withholding
// SP is detected: every height must eventually be covered by a verified
// notification (realtime) or batch (lazy), in order.
//
// Exclusion semantics per pruned mismatch node:
//   * a clause exclusion proves every object below fails that CNF clause;
//   * cell exclusions prove no object below lies in the given grid cells —
//     sufficient only when the cells jointly cover the query's whole range
//     box, which the verifier checks geometrically (CellsCoverQueryRange).
//
// Every structural check runs first; each clause exclusion, cell exclusion
// and lazy aggregated proof only appends a disjointness check, and one
// VerifyDisjointAll call per notification or lazy batch (its match block
// included) settles them all: with acc2, one pairing product.

#ifndef VCHAIN_SUB_SUB_VERIFIER_H_
#define VCHAIN_SUB_SUB_VERIFIER_H_

#include <vector>

#include "accum/engine.h"
#include "chain/light_client.h"
#include "core/verifier.h"
#include "sub/subscription.h"

namespace vchain::sub {

template <typename Engine>
class SubVerifier {
  using Checks = std::vector<accum::DisjointCheck<Engine>>;

 public:
  SubVerifier(const Engine& engine, const ChainConfig& config,
              const chain::LightClient* lc)
      : engine_(engine), config_(config), lc_(lc) {}

  /// Verify a realtime notification for `q` against the block header at
  /// notif.height.
  Status VerifyNotification(const Query& q,
                            const SubNotification<Engine>& notif) const {
    Checks checks;
    VCHAIN_RETURN_IF_ERROR(CheckNotification(q, notif, &checks));
    return VerifyChecks(checks);
  }

  /// Verify a lazy batch for `q`. `expected_from` is the first height still
  /// owed to this subscriber; on success returns (via out param) the next
  /// height owed after this batch.
  Status VerifyLazyBatch(const Query& q, const LazyBatch<Engine>& batch,
                         uint64_t expected_from, uint64_t* next_owed) const {
    TransformedQuery tq = core::TransformQuery(q, config_.schema);
    uint64_t cursor = expected_from;
    Checks checks;
    if (batch.has_pending) {
      if (batch.clause_idx >= tq.clauses.size()) {
        return Status::VerifyFailed("lazy clause index out of range");
      }
      if (batch.from_height != expected_from) {
        return Status::VerifyFailed("lazy batch leaves a gap");
      }
      if (batch.units.empty()) {
        return Status::VerifyFailed("pending batch without units");
      }
      std::vector<typename Engine::ObjectDigest> digests;
      for (const auto& unit : batch.units) {
        VCHAIN_RETURN_IF_ERROR(VerifyUnitStructure(unit, &cursor, &digests));
      }
      if (cursor != batch.to_height + 1) {
        return Status::VerifyFailed("lazy batch coverage inconsistent");
      }
      // One aggregated proof covers the whole run.
      if constexpr (Engine::kSupportsAggregation) {
        if (!batch.agg_proof.has_value()) {
          return Status::VerifyFailed("missing aggregated proof");
        }
        checks.push_back({engine_.SumDigests(digests),
                          engine_.QueryDigestOf(tq.clauses[batch.clause_idx]),
                          *batch.agg_proof});
      } else {
        return Status::VerifyFailed(
            "lazy batches require an aggregating engine");
      }
    }
    if (batch.match.has_value()) {
      if (batch.match->height != cursor) {
        return Status::VerifyFailed("match block out of order");
      }
      // The notification carries its own object list.
      VCHAIN_RETURN_IF_ERROR(CheckNotification(q, *batch.match, &checks));
      ++cursor;
    }
    VCHAIN_RETURN_IF_ERROR(VerifyChecks(checks));
    *next_owed = cursor;
    return Status::OK();
  }

 private:
  Status VerifyChecks(const Checks& checks) const {
    if (!engine_.VerifyDisjointAll(checks)) {
      return Status::VerifyFailed("disjointness proof rejected");
    }
    return Status::OK();
  }

  /// Every structural check of a realtime notification; its exclusion
  /// proofs are appended to `checks`.
  Status CheckNotification(const Query& q,
                           const SubNotification<Engine>& notif,
                           Checks* checks) const {
    if (notif.height >= lc_->Height()) {
      return Status::VerifyFailed("notification for unknown block");
    }
    TransformedQuery tq = core::TransformQuery(q, config_.schema);
    MappedQueryView view(engine_, tq);
    std::vector<typename Engine::QueryDigest> clause_digests;
    for (const Multiset& c : tq.clauses) {
      clause_digests.push_back(engine_.QueryDigestOf(c));
    }

    const chain::BlockHeader& header = lc_->HeaderAt(notif.height);
    std::vector<bool> used(notif.objects.size(), false);
    chain::Hash32 root;
    if (notif.root < 0) {
      // Flat (nil-mode) notification.
      std::vector<chain::Hash32> leaves;
      for (const SubVoNode<Engine>& n : notif.nodes) {
        if (n.kind == VoKind::kExpand) {
          return Status::VerifyFailed("expand node in flat notification");
        }
        chain::Hash32 h;
        VCHAIN_RETURN_IF_ERROR(
            VerifyLeafish(n, q, tq, view, clause_digests, notif, &used,
                          checks, &h));
        leaves.push_back(h);
      }
      root = chain::MerkleRootOf(leaves);
    } else {
      std::vector<int> visited(notif.nodes.size(), 0);
      VCHAIN_RETURN_IF_ERROR(VerifyNode(notif, notif.root, q, tq, view,
                                        clause_digests, &used, &visited,
                                        checks, &root));
    }
    if (root != header.object_root) {
      return Status::VerifyFailed("notification root mismatch");
    }
    for (bool u : used) {
      if (!u) return Status::VerifyFailed("unreferenced object");
    }
    return Status::OK();
  }

  Status VerifyNode(
      const SubNotification<Engine>& notif, int32_t idx, const Query& q,
      const TransformedQuery& tq, const MappedQueryView& view,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      std::vector<bool>* used, std::vector<int>* visited, Checks* checks,
      chain::Hash32* out_hash) const {
    if (idx < 0 || idx >= static_cast<int32_t>(notif.nodes.size())) {
      return Status::VerifyFailed("node index out of range");
    }
    if ((*visited)[idx]++) {
      return Status::VerifyFailed("node referenced twice");
    }
    const SubVoNode<Engine>& n = notif.nodes[idx];
    if (n.kind == VoKind::kExpand) {
      chain::Hash32 hl, hr;
      VCHAIN_RETURN_IF_ERROR(VerifyNode(notif, n.left, q, tq, view,
                                        clause_digests, used, visited, checks,
                                        &hl));
      VCHAIN_RETURN_IF_ERROR(VerifyNode(notif, n.right, q, tq, view,
                                        clause_digests, used, visited, checks,
                                        &hr));
      *out_hash =
          core::NodeHash(engine_, crypto::HashPair(hl, hr), n.digest);
      return Status::OK();
    }
    return VerifyLeafish(n, q, tq, view, clause_digests, notif, used, checks,
                         out_hash);
  }

  Status VerifyLeafish(
      const SubVoNode<Engine>& n, const Query& q, const TransformedQuery& tq,
      const MappedQueryView& view,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      const SubNotification<Engine>& notif, std::vector<bool>* used,
      Checks* checks, chain::Hash32* out_hash) const {
    if (n.kind == VoKind::kMatch) {
      if (n.object_ref >= notif.objects.size()) {
        return Status::VerifyFailed("match references missing object");
      }
      if ((*used)[n.object_ref]) {
        return Status::VerifyFailed("object referenced twice");
      }
      (*used)[n.object_ref] = true;
      const Object& o = notif.objects[n.object_ref];
      Multiset w = chain::TransformObject(o, config_.schema);
      if (!view.Matches(engine_, w)) {
        return Status::VerifyFailed("returned object does not match query");
      }
      *out_hash = core::NodeHash(engine_, o.Hash(), n.digest);
      return Status::OK();
    }
    // Mismatch: exclusions must each verify AND jointly exclude q.
    if (n.exclusions.empty()) {
      return Status::VerifyFailed("mismatch node without exclusions");
    }
    bool clause_excluded = false;
    std::vector<CellBox> cells;
    for (const SubExclusion<Engine>& ex : n.exclusions) {
      if (!ex.is_cell) {
        if (ex.clause_idx >= tq.clauses.size()) {
          return Status::VerifyFailed("exclusion clause index out of range");
        }
        checks->push_back({n.digest, clause_digests[ex.clause_idx], ex.proof});
        clause_excluded = true;
      } else {
        if (ex.cell.dims.size() != config_.schema.dims) {
          return Status::VerifyFailed("cell dimensionality mismatch");
        }
        for (const chain::DyadicRange& r : ex.cell.dims) {
          if (r.prefix_len > config_.schema.bits) {
            return Status::VerifyFailed("cell deeper than schema");
          }
        }
        Multiset set = ex.cell.PrefixMultiset(config_.schema);
        checks->push_back({n.digest, engine_.QueryDigestOf(set), ex.proof});
        cells.push_back(ex.cell);
      }
    }
    if (!clause_excluded) {
      // Cell exclusions only: they must blanket q's entire range box.
      if (!CellsCoverQueryRange(q, cells, config_.schema)) {
        return Status::VerifyFailed(
            "cell exclusions do not cover the query range");
      }
    }
    *out_hash = core::NodeHash(engine_, n.inner_hash, n.digest);
    return Status::OK();
  }

  Status VerifyUnitStructure(
      const typename LazyBatch<Engine>::Unit& unit, uint64_t* cursor,
      std::vector<typename Engine::ObjectDigest>* digests) const {
    if (std::holds_alternative<typename LazyBatch<Engine>::BlockUnit>(unit)) {
      const auto& bu = std::get<typename LazyBatch<Engine>::BlockUnit>(unit);
      if (bu.height != *cursor) {
        return Status::VerifyFailed("lazy block unit out of order");
      }
      if (bu.height >= lc_->Height()) {
        return Status::VerifyFailed("lazy unit beyond known chain");
      }
      chain::Hash32 h = core::NodeHash(engine_, bu.inner_hash, bu.digest);
      if (h != lc_->HeaderAt(bu.height).object_root) {
        return Status::VerifyFailed("lazy block unit root mismatch");
      }
      digests->push_back(bu.digest);
      *cursor += 1;
      return Status::OK();
    }
    const auto& su = std::get<typename LazyBatch<Engine>::SkipUnit>(unit);
    if (su.from_height >= lc_->Height()) {
      return Status::VerifyFailed("skip unit beyond known chain");
    }
    uint32_t levels = config_.NumSkipLevels(su.from_height);
    if (su.level >= levels ||
        su.distance != config_.SkipDistance(su.level)) {
      return Status::VerifyFailed("invalid lazy skip level");
    }
    if (su.from_height < su.distance ||
        su.from_height - su.distance != *cursor) {
      return Status::VerifyFailed("lazy skip unit out of order");
    }
    if (su.other_entry_hashes.size() + 1 != levels) {
      return Status::VerifyFailed("wrong lazy skip sibling count");
    }
    ByteWriter hs;
    for (uint64_t j = su.from_height - su.distance; j < su.from_height; ++j) {
      hs.PutFixed(crypto::HashSpan(lc_->BlockHashAt(j)));
    }
    chain::Hash32 preskipped = crypto::Sha256Digest(
        ByteSpan(hs.bytes().data(), hs.bytes().size()));
    ByteWriter ew;
    ew.PutFixed(crypto::HashSpan(preskipped));
    engine_.SerializeDigest(su.digest, &ew);
    chain::Hash32 entry_hash = crypto::Sha256Digest(
        ByteSpan(ew.bytes().data(), ew.bytes().size()));
    ByteWriter root_w;
    size_t sib = 0;
    for (uint32_t li = 0; li < levels; ++li) {
      if (li == su.level) {
        root_w.PutFixed(crypto::HashSpan(entry_hash));
      } else {
        root_w.PutFixed(crypto::HashSpan(su.other_entry_hashes[sib++]));
      }
    }
    chain::Hash32 root = crypto::Sha256Digest(
        ByteSpan(root_w.bytes().data(), root_w.bytes().size()));
    if (root != lc_->HeaderAt(su.from_height).skiplist_root) {
      return Status::VerifyFailed("lazy skip root mismatch");
    }
    digests->push_back(su.digest);
    *cursor = su.from_height;
    return Status::OK();
  }

  Engine engine_;
  ChainConfig config_;
  const chain::LightClient* lc_;
};

}  // namespace vchain::sub

#endif  // VCHAIN_SUB_SUB_VERIFIER_H_
