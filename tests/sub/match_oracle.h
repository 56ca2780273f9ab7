// Reference subscription matchers for the equivalence tests: §7 as the
// paper presents it, one standing query at a time, with no clause index, no
// grouping and no shared templates. The production SubscriptionManager must
// produce byte-identical notifications and lazy batches.

#ifndef VCHAIN_TESTS_SUB_MATCH_ORACLE_H_
#define VCHAIN_TESTS_SUB_MATCH_ORACLE_H_

#include <map>
#include <memory>
#include <vector>

#include "sub/subscription.h"

namespace vchain::sub {

/// Realtime oracle: one proof walk per active query (ascending id). The
/// walks share `mgr`'s proof cache, as independent per-query matching would.
template <typename Engine>
std::vector<SubNotification<Engine>> OracleProcessBlock(
    SubscriptionManager<Engine>& mgr, const core::Block<Engine>& block) {
  std::vector<SubNotification<Engine>> out;
  for (uint32_t id : mgr.ip_tree().ActiveQueryIds()) {
    out.push_back(mgr.RebuildNotification(block, id).TakeValue());
  }
  return out;
}

/// Lazy oracle (Algorithm 5, per query): map the block's root multiset
/// through each query's own MappedQueryView, stack silent blocks, fold a
/// contiguous trailing run into a skip unit when the skip's summed multiset
/// avoids the exclusion clause, and flush with one aggregated proof. Match
/// blocks carry the realtime oracle's notification.
template <typename Engine>
class LazyOracle {
 public:
  LazyOracle(const Engine& engine, const core::ChainConfig& config,
             typename SubscriptionManager<Engine>::Options options)
      : engine_(engine), config_(config), registry_(engine, config, options) {}

  Result<uint32_t> TrySubscribe(const core::Query& q) {
    auto id = registry_.TrySubscribe(q);
    if (!id.ok()) return id;
    PerQuery& pq = queries_[id.value()];
    pq.first_keyword_clause = q.ranges.size();
    pq.tq = std::make_unique<core::TransformedQuery>(
        core::TransformQuery(q, config_.schema));
    pq.view = std::make_unique<core::MappedQueryView>(engine_, *pq.tq);
    return id;
  }

  std::vector<LazyBatch<Engine>> ProcessBlockLazy(
      const core::Block<Engine>& block) {
    std::vector<LazyBatch<Engine>> out;
    for (auto& [id, pq] : queries_) {
      std::vector<uint64_t> mapped;
      pq.view->MapForMatch(engine_, block.block_w, &mapped);
      int clause = pq.view->FindDisjointClauseFrom(mapped,
                                                   pq.first_keyword_clause);
      if (clause >= 0) {
        Append(block, id, static_cast<uint32_t>(clause), &pq, &out);
      } else {
        LazyBatch<Engine> batch = Flush(id, &pq);
        batch.match = registry_.RebuildNotification(block, id).TakeValue();
        out.push_back(std::move(batch));
      }
    }
    return out;
  }

  std::vector<LazyBatch<Engine>> FlushAll() {
    std::vector<LazyBatch<Engine>> out;
    for (auto& [id, pq] : queries_) {
      if (!pq.units.empty()) out.push_back(Flush(id, &pq));
    }
    return out;
  }

 private:
  using Batch = LazyBatch<Engine>;

  struct PerQuery {
    size_t first_keyword_clause = 0;
    std::unique_ptr<core::TransformedQuery> tq;
    std::unique_ptr<core::MappedQueryView> view;
    // The pending silent run.
    uint32_t clause_idx = 0;
    accum::Multiset w_sum;
    std::vector<typename Batch::Unit> units;
    std::vector<uint64_t> trailing_blocks;  ///< heights of trailing BlockUnits
  };

  void Append(const core::Block<Engine>& block, uint32_t id,
              uint32_t clause_idx, PerQuery* pq, std::vector<Batch>* out) {
    if (!pq->units.empty() && pq->clause_idx != clause_idx) {
      out->push_back(Flush(id, pq));
    }
    pq->clause_idx = clause_idx;
    const uint64_t h = block.header.height;
    if (config_.mode == core::IndexMode::kBoth) {
      for (size_t li = block.skips.size(); li-- > 0;) {
        const core::SkipEntry<Engine>& skip = block.skips[li];
        const size_t nb = pq->trailing_blocks.size();
        if (nb < skip.distance) continue;
        bool contiguous = true;
        for (uint64_t k = 0; k < skip.distance; ++k) {
          contiguous &= pq->trailing_blocks[nb - 1 - k] == h - 1 - k;
        }
        if (!contiguous ||
            pq->view->ClauseIntersects(engine_, skip.w, clause_idx)) {
          continue;
        }
        pq->units.resize(pq->units.size() - skip.distance);
        pq->trailing_blocks.resize(nb - skip.distance);
        typename Batch::SkipUnit su;
        su.from_height = h;
        su.level = static_cast<uint32_t>(li);
        su.distance = skip.distance;
        su.digest = skip.digest;
        for (size_t other = 0; other < block.skips.size(); ++other) {
          if (other != li) {
            su.other_entry_hashes.push_back(block.skips[other].entry_hash);
          }
        }
        pq->units.emplace_back(std::move(su));
        break;
      }
    }
    const core::IndexNode<Engine>& root = block.nodes[block.root_index];
    typename Batch::BlockUnit bu;
    bu.height = h;
    bu.inner_hash = root.IsLeaf()
                        ? block.objects[root.object_index].Hash()
                        : crypto::HashPair(block.nodes[root.left].hash,
                                           block.nodes[root.right].hash);
    bu.digest = root.digest;
    pq->units.emplace_back(std::move(bu));
    pq->trailing_blocks.push_back(h);
    pq->w_sum = pq->w_sum.SumWith(block.block_w);
  }

  Batch Flush(uint32_t id, PerQuery* pq) {
    Batch batch;
    batch.query_id = id;
    if (!pq->units.empty()) {
      batch.has_pending = true;
      batch.clause_idx = pq->clause_idx;
      batch.units = std::move(pq->units);
      batch.from_height = Low(batch.units.front());
      batch.to_height = High(batch.units.back());
      batch.agg_proof =
          engine_.ProveDisjoint(pq->w_sum, pq->tq->clauses[pq->clause_idx])
              .TakeValue();
    }
    pq->units.clear();
    pq->trailing_blocks.clear();
    pq->w_sum = accum::Multiset{};
    pq->clause_idx = 0;
    return batch;
  }

  static uint64_t Low(const typename Batch::Unit& u) {
    if (const auto* b = std::get_if<typename Batch::BlockUnit>(&u)) {
      return b->height;
    }
    const auto& s = std::get<typename Batch::SkipUnit>(u);
    return s.from_height - s.distance;
  }
  static uint64_t High(const typename Batch::Unit& u) {
    if (const auto* b = std::get_if<typename Batch::BlockUnit>(&u)) {
      return b->height;
    }
    return std::get<typename Batch::SkipUnit>(u).from_height - 1;
  }

  Engine engine_;
  core::ChainConfig config_;
  SubscriptionManager<Engine> registry_;  ///< ids + match-block notifications
  std::map<uint32_t, PerQuery> queries_;
};

}  // namespace vchain::sub

#endif  // VCHAIN_TESTS_SUB_MATCH_ORACLE_H_
