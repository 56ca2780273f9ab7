// Light-node result verification (the user side of Algorithms 1/3/4 and the
// §8.2 security game).
//
// Given <R, VO> and nothing but the authenticated block headers, the
// verifier establishes:
//   soundness     — every returned object hashes into its block's committed
//                   object root and satisfies the (mapped) query condition;
//   completeness  — the VO's steps tile the query window exactly; every
//                   block root is reconstructed from the VO, which forces
//                   every object to be either returned or covered by a
//                   verified mismatch proof; skip steps are checked against
//                   the committed skip-list roots and proven disjoint.
//
// The structural checks (window tiling, hashes, roots, skip levels, clause
// indexes) all run first. Meanwhile the walk defers one disjointness check
// per proof-carrying node or skip step; with an aggregating engine,
// proof-less mismatch entries are grouped per clause, their digests summed,
// and one check per aggregated proof deferred (§6.3). Every proof of the VO
// enters that list exactly once, and one VerifyDisjointAll call settles it:
// with acc2, one pairing product per verified answer.

#ifndef VCHAIN_CORE_VERIFIER_H_
#define VCHAIN_CORE_VERIFIER_H_

#include <map>
#include <vector>

#include "accum/engine.h"
#include "chain/light_client.h"
#include "core/query.h"
#include "core/vo.h"

namespace vchain::core {

template <typename Engine>
class Verifier {
 public:
  Verifier(const Engine& engine, const ChainConfig& config,
           const chain::LightClient* light_client)
      : engine_(engine), config_(config), lc_(light_client) {}

  /// Full verification of a time-window query response. A structurally
  /// invalid query is InvalidArgument (the user-side mirror of the SP's
  /// rejection — such a query could not have produced an honest response).
  Status VerifyTimeWindow(const Query& q,
                          const QueryResponse<Engine>& resp) const {
    VCHAIN_RETURN_IF_ERROR(ValidateQuery(q, config_.schema));
    TransformedQuery tq = TransformQuery(q, config_.schema);
    MappedQueryView view(engine_, tq);

    auto range = lc_->HeightRangeForWindow(q.time_start, q.time_end);
    if (!range) {
      if (!resp.vo.steps.empty() || !resp.objects.empty()) {
        return Status::VerifyFailed("non-empty response for empty window");
      }
      return Status::OK();
    }

    // Pre-compute query digests once per clause (the user-side pk work).
    std::vector<typename Engine::QueryDigest> clause_digests;
    clause_digests.reserve(tq.clauses.size());
    for (const Multiset& c : tq.clauses) {
      clause_digests.push_back(engine_.QueryDigestOf(c));
    }

    std::vector<bool> object_used(resp.objects.size(), false);
    Deferred deferred;

    uint64_t cursor = range->second;
    bool done = false;
    for (const auto& step : resp.vo.steps) {
      if (done) return Status::VerifyFailed("VO continues past window start");
      if (std::holds_alternative<BlockVO<Engine>>(step)) {
        const auto& bvo = std::get<BlockVO<Engine>>(step);
        if (bvo.height != cursor) {
          return Status::VerifyFailed("VO block out of order");
        }
        VCHAIN_RETURN_IF_ERROR(VerifyBlockStep(bvo, q, tq, view,
                                               clause_digests, resp.objects,
                                               &object_used, &deferred));
        if (cursor == range->first) {
          done = true;
        } else {
          --cursor;
        }
      } else {
        const auto& svo = std::get<SkipVO<Engine>>(step);
        // The skip must belong to the block we just descended past: the
        // processor emits it right after that block's own VO.
        if (svo.from_height != cursor + 1) {
          return Status::VerifyFailed("skip step from unexpected height");
        }
        VCHAIN_RETURN_IF_ERROR(
            VerifySkipStep(svo, tq, clause_digests, &deferred));
        if (svo.distance > cursor + 1 ||
            cursor + 1 - svo.distance < range->first) {
          return Status::VerifyFailed("skip overshoots the query window");
        }
        cursor = cursor + 1 - svo.distance;
        if (cursor == range->first) {
          done = true;
        } else {
          --cursor;
        }
      }
    }
    if (!done) return Status::VerifyFailed("VO does not cover the window");

    for (bool used : object_used) {
      if (!used) return Status::VerifyFailed("unreferenced object in results");
    }
    VCHAIN_RETURN_IF_ERROR(
        VerifyAggregates(resp.vo, tq, clause_digests, &deferred));
    if (!engine_.VerifyDisjointAll(deferred.checks)) {
      return Status::VerifyFailed("disjointness proof rejected");
    }
    return Status::OK();
  }

 private:
  /// What the structural walk leaves for the end.
  struct Deferred {
    /// One per proof of the VO, checked together by VerifyDisjointAll.
    std::vector<accum::DisjointCheck<Engine>> checks;
    /// clause -> digests of proof-less entries (aggregating engines).
    std::map<uint32_t, std::vector<typename Engine::ObjectDigest>> pending;
  };

  Status VerifyBlockStep(
      const BlockVO<Engine>& bvo, const Query& q, const TransformedQuery& tq,
      const MappedQueryView& view,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      const std::vector<Object>& objects, std::vector<bool>* object_used,
      Deferred* deferred) const {
    const chain::BlockHeader& header = lc_->HeaderAt(bvo.height);
    if (bvo.nodes.empty()) {
      return Status::VerifyFailed("empty block VO");
    }
    Hash32 root;
    if (config_.mode == IndexMode::kNil) {
      // Flat mode: nodes are all leaves in object order.
      std::vector<Hash32> leaf_hashes;
      leaf_hashes.reserve(bvo.nodes.size());
      for (const VoNode<Engine>& n : bvo.nodes) {
        if (n.kind == VoKind::kExpand) {
          return Status::VerifyFailed("expand node in nil-mode VO");
        }
        Hash32 h;
        VCHAIN_RETURN_IF_ERROR(VerifyLeafOrMismatch(
            n, q, tq, view, clause_digests, objects, object_used, deferred,
            &h));
        leaf_hashes.push_back(h);
      }
      root = chain::MerkleRootOf(leaf_hashes);
    } else {
      if (bvo.root < 0 ||
          bvo.root >= static_cast<int32_t>(bvo.nodes.size())) {
        return Status::VerifyFailed("bad VO root index");
      }
      std::vector<int> visited(bvo.nodes.size(), 0);
      VCHAIN_RETURN_IF_ERROR(VerifyTreeNode(bvo, bvo.root, q, tq, view,
                                            clause_digests, objects,
                                            object_used, deferred, &visited,
                                            &root));
    }
    if (root != header.object_root) {
      return Status::VerifyFailed("reconstructed object root mismatch");
    }
    return Status::OK();
  }

  /// Recursively recompute the node hash of a VO subtree, verifying each
  /// node's claim along the way.
  Status VerifyTreeNode(
      const BlockVO<Engine>& bvo, int32_t idx, const Query& q,
      const TransformedQuery& tq, const MappedQueryView& view,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      const std::vector<Object>& objects, std::vector<bool>* object_used,
      Deferred* deferred, std::vector<int>* visited, Hash32* out_hash) const {
    if (idx < 0 || idx >= static_cast<int32_t>(bvo.nodes.size())) {
      return Status::VerifyFailed("VO node index out of range");
    }
    if ((*visited)[idx]++) {
      return Status::VerifyFailed("VO node referenced twice");
    }
    const VoNode<Engine>& n = bvo.nodes[idx];
    if (n.kind == VoKind::kExpand) {
      Hash32 hl, hr;
      VCHAIN_RETURN_IF_ERROR(VerifyTreeNode(bvo, n.left, q, tq, view,
                                            clause_digests, objects,
                                            object_used, deferred, visited,
                                            &hl));
      VCHAIN_RETURN_IF_ERROR(VerifyTreeNode(bvo, n.right, q, tq, view,
                                            clause_digests, objects,
                                            object_used, deferred, visited,
                                            &hr));
      *out_hash = NodeHash(engine_, crypto::HashPair(hl, hr), n.digest);
      return Status::OK();
    }
    return VerifyLeafOrMismatch(n, q, tq, view, clause_digests, objects,
                                object_used, deferred, out_hash);
  }

  Status VerifyLeafOrMismatch(
      const VoNode<Engine>& n, const Query& q, const TransformedQuery& tq,
      const MappedQueryView& view,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      const std::vector<Object>& objects, std::vector<bool>* object_used,
      Deferred* deferred, Hash32* out_hash) const {
    if (n.kind == VoKind::kMatch) {
      if (n.object_ref >= objects.size()) {
        return Status::VerifyFailed("VO match references missing object");
      }
      if ((*object_used)[n.object_ref]) {
        return Status::VerifyFailed("object referenced twice");
      }
      (*object_used)[n.object_ref] = true;
      const Object& o = objects[n.object_ref];
      // Soundness: the object must satisfy the query. Time is checked via
      // the header walk; attributes via the shared mapped-match relation.
      Multiset w = chain::TransformObject(o, config_.schema);
      if (!view.Matches(engine_, w)) {
        return Status::VerifyFailed("returned object does not match query");
      }
      (void)q;
      *out_hash = NodeHash(engine_, o.Hash(), n.digest);
      return Status::OK();
    }
    // Mismatch node.
    if (n.clause_idx >= tq.clauses.size()) {
      return Status::VerifyFailed("mismatch clause index out of range");
    }
    if (n.proof.has_value()) {
      deferred->checks.push_back(
          {n.digest, clause_digests[n.clause_idx], *n.proof});
    } else {
      if constexpr (Engine::kSupportsAggregation) {
        deferred->pending[n.clause_idx].push_back(n.digest);
      } else {
        return Status::VerifyFailed("missing proof for mismatch node");
      }
    }
    *out_hash = NodeHash(engine_, n.inner_hash, n.digest);
    return Status::OK();
  }

  Status VerifySkipStep(
      const SkipVO<Engine>& svo, const TransformedQuery& tq,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      Deferred* deferred) const {
    const chain::BlockHeader& header = lc_->HeaderAt(svo.from_height);
    uint32_t levels = config_.NumSkipLevels(svo.from_height);
    if (svo.level >= levels ||
        svo.distance != config_.SkipDistance(svo.level)) {
      return Status::VerifyFailed("invalid skip level");
    }
    if (svo.other_entry_hashes.size() + 1 != levels) {
      return Status::VerifyFailed("wrong skip sibling count");
    }
    // Recompute this entry's hash from our own headers plus the claimed
    // digest, then the skip-list root from all level hashes.
    ByteWriter hs;
    for (uint64_t j = svo.from_height - svo.distance; j < svo.from_height;
         ++j) {
      hs.PutFixed(crypto::HashSpan(lc_->BlockHashAt(j)));
    }
    Hash32 preskipped = crypto::Sha256Digest(
        ByteSpan(hs.bytes().data(), hs.bytes().size()));
    ByteWriter ew;
    ew.PutFixed(crypto::HashSpan(preskipped));
    engine_.SerializeDigest(svo.digest, &ew);
    Hash32 entry_hash = crypto::Sha256Digest(
        ByteSpan(ew.bytes().data(), ew.bytes().size()));
    ByteWriter root_w;
    size_t sibling = 0;
    for (uint32_t li = 0; li < levels; ++li) {
      if (li == svo.level) {
        root_w.PutFixed(crypto::HashSpan(entry_hash));
      } else {
        root_w.PutFixed(crypto::HashSpan(svo.other_entry_hashes[sibling++]));
      }
    }
    Hash32 root = crypto::Sha256Digest(
        ByteSpan(root_w.bytes().data(), root_w.bytes().size()));
    if (root != header.skiplist_root) {
      return Status::VerifyFailed("skip-list root mismatch");
    }
    if (svo.clause_idx >= tq.clauses.size()) {
      return Status::VerifyFailed("skip clause index out of range");
    }
    if (svo.proof.has_value()) {
      deferred->checks.push_back(
          {svo.digest, clause_digests[svo.clause_idx], *svo.proof});
    } else {
      if constexpr (Engine::kSupportsAggregation) {
        deferred->pending[svo.clause_idx].push_back(svo.digest);
      } else {
        return Status::VerifyFailed("missing proof for skip step");
      }
    }
    return Status::OK();
  }

  /// Defers one check per aggregated proof against its clause's summed
  /// digests. Every aggregated proof must cover a clause with pending
  /// entries and every such clause must have exactly one.
  Status VerifyAggregates(
      const WindowVO<Engine>& vo, const TransformedQuery& tq,
      const std::vector<typename Engine::QueryDigest>& clause_digests,
      Deferred* deferred) const {
    if constexpr (Engine::kSupportsAggregation) {
      std::map<uint32_t, const typename Engine::Proof*> agg_proofs;
      for (const AggregatedProof<Engine>& a : vo.aggregated) {
        if (a.clause_idx >= tq.clauses.size()) {
          return Status::VerifyFailed("aggregated clause index out of range");
        }
        if (!agg_proofs.emplace(a.clause_idx, &a.proof).second) {
          return Status::VerifyFailed("duplicate aggregated proof");
        }
      }
      for (const auto& [clause_idx, digests] : deferred->pending) {
        auto it = agg_proofs.find(clause_idx);
        if (it == agg_proofs.end()) {
          return Status::VerifyFailed("missing aggregated proof for clause");
        }
        deferred->checks.push_back({engine_.SumDigests(digests),
                                    clause_digests[clause_idx], *it->second});
      }
      // Every pending clause found its proof, so any surplus proof names a
      // clause with nothing to cover.
      if (agg_proofs.size() != deferred->pending.size()) {
        return Status::VerifyFailed("unreferenced aggregated proof");
      }
    } else {
      if (!vo.aggregated.empty() || !deferred->pending.empty()) {
        return Status::VerifyFailed(
            "aggregation not supported by this engine");
      }
    }
    return Status::OK();
  }

  const Engine& engine_;
  const ChainConfig& config_;
  const chain::LightClient* lc_;
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_VERIFIER_H_
