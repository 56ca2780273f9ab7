// The service provider's query processor (Fig 3's SP).
//
// Implements verifiable time-window queries across the three index modes:
//   * kNil   — per-object matching with one disjoint proof per mismatching
//              object (Algorithm 1 applied repeatedly);
//   * kIntra — top-down traversal of the intra-block index, pruning whole
//              mismatching subtrees with a single proof (Algorithm 3);
//   * kBoth  — additionally consumes inter-block skip entries when a whole
//              run of previous blocks mismatches one clause (Algorithm 4).
//
// With an aggregating engine (acc2) the processor performs §6.3's online
// batch verification: mismatching nodes/skips are grouped by clause, their
// multisets summed in place, and a single aggregated proof per clause is
// emitted instead of per-node proofs.
//
// Hot-path structure (see ROADMAP.md "Performance architecture"):
//   * window lookup is two binary searches over the source's resident
//     header timestamps — chain::HeightRangeForWindow, the same function
//     the light client runs, so no block is faulted in;
//   * each node multiset is mapped through the engine once and probed
//     against every clause from that mapping;
//   * every disjointness proof is computed inline through the cache
//     (acc2's honest prover spreads its key powers over
//     ThreadPool::Shared() itself);
//   * disjointness proofs are cached across queries; pass a shared
//     ProofCache to pool hits across processors serving the same chain.
//     The cache is internally synchronized (mutex-striped), so processors
//     on different threads may share one — the processor itself stays
//     single-threaded per instance (it keeps per-walk scratch state); the
//     concurrent-SP shape is one processor per query thread over a shared
//     cache and a thread-safe block source (see api/service.h).

#ifndef VCHAIN_CORE_PROCESSOR_H_
#define VCHAIN_CORE_PROCESSOR_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "chain/window.h"
#include "common/metrics.h"
#include "core/chain_builder.h"
#include "core/proof_cache.h"
#include "core/query.h"
#include "core/query_trace.h"
#include "core/vo.h"
#include "store/block_source.h"

namespace vchain::core {

template <typename Engine>
class QueryProcessor {
 public:
  /// Serve from any BlockSource — an in-memory chain or a disk-backed store
  /// (store/block_source.h). `shared_cache` (optional) substitutes an
  /// external cross-processor proof cache for the internal one.
  QueryProcessor(const Engine& engine, const ChainConfig& config,
                 const store::BlockSource<Engine>* source,
                 ProofCache<Engine>* shared_cache = nullptr)
      : engine_(engine),
        config_(config),
        source_(source),
        cache_(shared_cache != nullptr ? shared_cache : &own_cache_) {}

  // cache_ may point at own_cache_, so a memberwise copy/move would leave
  // the new object aiming into the source's storage.
  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  /// Process q over the chain; returns <R, VO>, or Status::InvalidArgument
  /// for a structurally invalid query (inverted or out-of-domain range,
  /// out-of-schema dimension, empty OR-clause — see core::ValidateQuery).
  ///
  /// `trace` (optional) receives the per-stage wall-time/work breakdown
  /// (core/query_trace.h). Tracing only reads clocks and bumps counters —
  /// the VO bytes are bit-identical with tracing on or off.
  Result<QueryResponse<Engine>> TimeWindowQuery(const Query& q,
                                                QueryTrace* trace = nullptr) {
    trace_ = trace;
    // A traced call always has a span tree: stage timing is done entirely in
    // spans (folded by name in QueryTrace::Stages), so direct callers of the
    // processor (tests, benches) see the same stage numbers the api tier does.
    spans_ = trace != nullptr ? trace->EnsureSpans() : nullptr;

    uint32_t s_setup = SpanBegin("setup");
    if (auto st = ValidateQuery(q, config_.schema); !st.ok()) {
      SpanEnd(s_setup);
      return FinishTrace(std::move(st));
    }
    TransformedQuery tq = TransformQuery(q, config_.schema);
    MappedQueryView view(engine_, tq);
    SpanEnd(s_setup);

    QueryResponse<Engine> resp;
    uint32_t s_window = SpanBegin("window_lookup");
    auto range = chain::HeightRangeForWindow(
        source_->NumBlocks(),
        [this](uint64_t h) { return source_->TimestampAt(h); }, q.time_start,
        q.time_end);
    SpanEnd(s_window);
    if (!range) {
      return FinishTrace(std::move(resp));  // empty window: nothing to prove
    }

    Aggregator agg;
    walk_span_ = SpanBegin("match_walk");
    {
      // Layers with no trace parameter under the walk (the store's
      // block-read miss path) attach their spans via the ambient context.
      trace::AmbientScope ambient(
          spans_, walk_span_ != 0 ? walk_span_ : trace::kRootSpan);
      uint64_t cursor = range->second;
      // Walk newest-to-oldest (Algorithm 4's direction). One block is
      // materialized at a time (BlockSource's reference contract), so a
      // disk-backed source never holds more than its cache's worth of
      // blocks.
      for (;;) {
        const Block<Engine>& block = source_->BlockAt(cursor);
        resp.vo.steps.push_back(ProcessBlock(block, tq, view, &resp, &agg));
        if (trace) ++trace->blocks_walked;
        if (cursor == range->first) break;
        // Try the *largest* usable mismatching skip of the current block.
        bool jumped = false;
        if (config_.mode == IndexMode::kBoth) {
          for (size_t li = block.skips.size(); li-- > 0;) {
            const SkipEntry<Engine>& skip = block.skips[li];
            if (cursor < skip.distance ||
                cursor - skip.distance + 1 <= range->first) {
              continue;  // would overshoot the window start
            }
            view.MapForMatch(engine_, skip.w, &mapped_w_);
            int clause = view.FindDisjointClause(mapped_w_);
            if (clause < 0) continue;
            resp.vo.steps.push_back(MakeSkipStep(
                block, static_cast<uint32_t>(li),
                static_cast<uint32_t>(clause), tq, &agg));
            cursor -= skip.distance + 1;
            jumped = true;
            if (trace) ++trace->skips_taken;
            break;
          }
        }
        if (!jumped) --cursor;
        if (cursor + 1 == range->first) break;  // walked past the start
      }
    }
    if (spans_ != nullptr && walk_span_ != 0) {
      spans_->Note(walk_span_, "blocks", trace->blocks_walked);
      spans_->Note(walk_span_, "nodes", trace->nodes_visited);
      spans_->Note(walk_span_, "skips", trace->skips_taken);
    }
    SpanEnd(walk_span_);
    if (trace) trace->results_matched = resp.objects.size();

    {
      // FlushAggregates' proving (the acc2 batch path) gets "prove" child
      // spans, which the stage fold moves from aggregate to prove; its
      // digest MSM gets informational "msm" child spans.
      trace::ScopedSpan s_agg(spans_, "aggregate");
      agg_span_ = s_agg.id();
      FlushAggregates(&agg, tq, &resp.vo);
      agg_span_ = 0;
    }
    return FinishTrace(std::move(resp));
  }

  typename ProofCache<Engine>::Stats cache_stats() const {
    return cache_->stats();
  }

 private:
  uint32_t SpanBegin(const char* name, uint32_t parent = trace::kRootSpan) {
    return spans_ != nullptr ? spans_->Begin(name, parent) : 0;
  }
  void SpanEnd(uint32_t id) {
    if (spans_ != nullptr) spans_->End(id);
  }

  /// Clear the per-call tracing state; passes its argument through so
  /// every return path reads `return FinishTrace(...)`.
  template <typename T>
  T FinishTrace(T value) {
    trace_ = nullptr;
    spans_ = nullptr;
    walk_span_ = 0;
    agg_span_ = 0;
    return value;
  }

  /// Pending per-clause aggregation state (acc2 batching).
  struct Aggregator {
    // clause_idx -> summed multiset of all proof-less mismatch nodes.
    std::map<uint32_t, Multiset> pending;
  };

  /// Cache-consulting proof with trace attribution. When tracing,
  /// hit/miss/proved counters are bumped and a "prove" span is opened under
  /// `parent` (the open walk or aggregate span), which the stage fold
  /// subtracts from that stage so the stages stay non-overlapping.
  Result<typename Engine::Proof> TracedGetOrProve(
      const typename Engine::ObjectDigest& digest, const Multiset& w,
      const Multiset& clause, uint32_t parent) {
    if (trace_ == nullptr) {
      return cache_->GetOrProve(engine_, digest, w, clause);
    }
    bool hit = false;
    uint32_t sp = SpanBegin("prove", parent != 0 ? parent : trace::kRootSpan);
    auto proof = cache_->GetOrProve(engine_, digest, w, clause, &hit);
    SpanEnd(sp);
    if (hit) {
      ++trace_->proof_cache_hits;
    } else {
      ++trace_->proof_cache_misses;
      ++trace_->proofs_computed;
    }
    return proof;
  }

  typename WindowVO<Engine>::Step ProcessBlock(const Block<Engine>& block,
                                               const TransformedQuery& tq,
                                               const MappedQueryView& view,
                                               QueryResponse<Engine>* resp,
                                               Aggregator* agg) {
    BlockVO<Engine> bvo;
    bvo.height = block.header.height;
    if (config_.mode == IndexMode::kNil) {
      ProcessNilBlock(block, tq, view, resp, agg, &bvo);
    } else {
      bvo.root = EmitSubtree(block, block.root_index, tq, view, resp, agg,
                             &bvo.nodes);
    }
    return bvo;
  }

  void ProcessNilBlock(const Block<Engine>& block, const TransformedQuery& tq,
                       const MappedQueryView& view,
                       QueryResponse<Engine>* resp, Aggregator* agg,
                       BlockVO<Engine>* bvo) {
    for (size_t i = 0; i < block.objects.size(); ++i) {
      if (trace_) ++trace_->nodes_visited;
      VoNode<Engine> node;
      node.digest = block.leaf_digests[i];
      const Multiset& w = block.object_ws[i];
      view.MapForMatch(engine_, w, &mapped_w_);
      if (view.Matches(mapped_w_)) {
        node.kind = VoKind::kMatch;
        node.object_ref = static_cast<uint32_t>(resp->objects.size());
        resp->objects.push_back(block.objects[i]);
      } else {
        int clause = view.FindDisjointClause(mapped_w_);
        FillMismatch(block.objects[i].Hash(), node.digest, w,
                     static_cast<uint32_t>(clause), tq, agg, &node);
      }
      bvo->nodes.push_back(std::move(node));
    }
  }

  /// Algorithm 3, emitting VO nodes; returns the VO-node index.
  int32_t EmitSubtree(const Block<Engine>& block, int32_t node_idx,
                      const TransformedQuery& tq, const MappedQueryView& view,
                      QueryResponse<Engine>* resp, Aggregator* agg,
                      std::vector<VoNode<Engine>>* out) {
    const IndexNode<Engine>& n = block.nodes[node_idx];
    if (trace_) ++trace_->nodes_visited;
    VoNode<Engine> vn;
    vn.digest = n.digest;
    view.MapForMatch(engine_, n.w, &mapped_w_);
    if (view.Matches(mapped_w_)) {
      if (n.IsLeaf()) {
        vn.kind = VoKind::kMatch;
        vn.object_ref = static_cast<uint32_t>(resp->objects.size());
        resp->objects.push_back(block.objects[n.object_index]);
        out->push_back(std::move(vn));
        return static_cast<int32_t>(out->size()) - 1;
      }
      vn.kind = VoKind::kExpand;
      vn.left = EmitSubtree(block, n.left, tq, view, resp, agg, out);
      vn.right = EmitSubtree(block, n.right, tq, view, resp, agg, out);
      out->push_back(std::move(vn));
      return static_cast<int32_t>(out->size()) - 1;
    }
    int clause = view.FindDisjointClause(mapped_w_);
    Hash32 inner =
        n.IsLeaf() ? block.objects[n.object_index].Hash()
                   : crypto::HashPair(block.nodes[n.left].hash,
                                      block.nodes[n.right].hash);
    FillMismatch(inner, n.digest, n.w, static_cast<uint32_t>(clause), tq, agg,
                 &vn);
    out->push_back(std::move(vn));
    return static_cast<int32_t>(out->size()) - 1;
  }

  void FillMismatch(const Hash32& inner,
                    const typename Engine::ObjectDigest& digest,
                    const Multiset& w, uint32_t clause_idx,
                    const TransformedQuery& tq, Aggregator* agg,
                    VoNode<Engine>* node) {
    node->kind = VoKind::kMismatch;
    node->inner_hash = inner;
    node->clause_idx = clause_idx;
    if constexpr (Engine::kSupportsAggregation) {
      auto [it, inserted] = agg->pending.try_emplace(clause_idx, w);
      if (!inserted) it->second.SumInPlace(w);
      // proof omitted: covered by the per-clause aggregated proof
    } else {
      auto proof =
          TracedGetOrProve(digest, w, tq.clauses[clause_idx], walk_span_);
      // A failure here would mean the match decision and the accumulator
      // disagree, which the mapped-match relation rules out by construction.
      assert(proof.ok());
      node->proof = proof.TakeValue();
    }
  }

  typename WindowVO<Engine>::Step MakeSkipStep(const Block<Engine>& block,
                                               uint32_t level,
                                               uint32_t clause_idx,
                                               const TransformedQuery& tq,
                                               Aggregator* agg) {
    const SkipEntry<Engine>& entry = block.skips[level];
    SkipVO<Engine> svo;
    svo.from_height = block.header.height;
    svo.level = level;
    svo.distance = entry.distance;
    svo.digest = entry.digest;
    svo.clause_idx = clause_idx;
    for (size_t li = 0; li < block.skips.size(); ++li) {
      if (li != level) {
        svo.other_entry_hashes.push_back(block.skips[li].entry_hash);
      }
    }
    if constexpr (Engine::kSupportsAggregation) {
      auto [it, inserted] = agg->pending.try_emplace(clause_idx, entry.w);
      if (!inserted) it->second.SumInPlace(entry.w);
    } else {
      auto proof = TracedGetOrProve(entry.digest, entry.w,
                                    tq.clauses[clause_idx], walk_span_);
      assert(proof.ok());
      svo.proof = proof.TakeValue();
    }
    return svo;
  }

  void FlushAggregates(Aggregator* agg, const TransformedQuery& tq,
                       WindowVO<Engine>* vo) {
    if constexpr (Engine::kSupportsAggregation) {
      for (auto& [clause_idx, summed] : agg->pending) {
        // One proof over the summed multiset equals the ProofSum of the
        // individual proofs (A is linear), at a single multiexp's cost.
        uint32_t s_msm = SpanBegin(
            "msm", agg_span_ != 0 ? agg_span_ : trace::kRootSpan);
        auto digest = engine_.Digest(summed);
        SpanEnd(s_msm);
        auto proof = TracedGetOrProve(digest, summed, tq.clauses[clause_idx],
                                      agg_span_);
        assert(proof.ok());
        vo->aggregated.push_back(
            AggregatedProof<Engine>{clause_idx, proof.TakeValue()});
      }
    } else {
      (void)agg;
      (void)tq;
      (void)vo;
    }
  }

  const Engine& engine_;
  const ChainConfig& config_;
  const store::BlockSource<Engine>* source_;
  ProofCache<Engine> own_cache_;
  ProofCache<Engine>* cache_;
  std::vector<uint64_t> mapped_w_;  // per-node mapping scratch
  QueryTrace* trace_ = nullptr;     // non-null only inside a traced call
  trace::SpanTree* spans_ = nullptr;  // trace_'s tree; same lifetime
  uint32_t walk_span_ = 0;  // open "match_walk" span during the walk
  uint32_t agg_span_ = 0;   // open "aggregate" span during FlushAggregates
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_PROCESSOR_H_
