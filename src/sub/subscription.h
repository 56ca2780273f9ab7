// Verifiable subscription queries (§7).
//
// The SP registers standing queries and, per newly mined block, publishes to
// every subscriber either matching objects plus a proof tree, or evidence
// that nothing matched. Two publication disciplines:
//
//   * realtime — every block produces a per-query notification carrying a
//     pruned proof tree (like the time-window BlockVO, but mismatch nodes
//     may be excluded either by a CNF clause or by grid *cells* — "no object
//     under this node lies in cell C" — which lets different queries share
//     one proof);
//   * lazy (§7.2, Algorithm 5) — consecutive all-mismatch blocks are stacked
//     and consolidated through the inter-block skip list; one aggregated
//     disjointness proof (acc2's ProofSum/Sum) covers the entire run when a
//     match finally flushes it. Lazy requires an aggregating engine and an
//     intra-block index: a run's units authenticate each block through its
//     index root, which flat (IndexMode::kNil) blocks do not have.
//
// Matching is driven by the block, not by the subscriber list: the
// clause-inverted index (sub/match/clause_index.h) maps the block's root
// multiset ONCE, each mapped element marks the interned clauses posting it,
// and per query only a hit-flag scan remains. Queries with a non-hit clause
// take the exclusion fast path — their notification differs only in
// query_id and clause_idx, so one root-mismatch template (one cached proof
// probe) is built per distinct exclusion clause and stamped per subscriber.
// Queries whose clauses were all hit are *candidates*: full CNF proof-tree
// evaluation runs once per group of subscriptions with identical clause
// content (identical content fixes the entire proof walk, terminal cells
// included, because equal range covers imply equal range boxes and the grid
// freezes cells at registration — see ip_tree.h), then the group
// notification is stamped per subscriber. Every notification is
// byte-identical to matching each query on its own (§7's presentation,
// which RebuildNotification still performs for one query); the tests keep
// that per-query scan as the oracle.
//
// Proof sharing across queries (§7.1's motivation) happens through a
// content-keyed decision memo + proof cache: one (index node, clause/cell)
// disjointness decision and proof serves every query that needs it. The
// IP-Tree provides the grid cells, query classification, and fallback
// handling for queries the grid cannot resolve.
//
// Subscribe/Unsubscribe are incremental: interning and releasing postings,
// plus an incremental grid insert — no structure is rebuilt.
// Snapshot()/Restore() expose the full registration + lazy-run state for
// checkpoint persistence (sub/match/checkpoint.h).

#ifndef VCHAIN_SUB_SUBSCRIPTION_H_
#define VCHAIN_SUB_SUBSCRIPTION_H_

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/processor.h"
#include "sub/ip_tree.h"
#include "sub/match/clause_index.h"
#include "sub/match/metrics.h"

namespace vchain::sub {

using chain::Object;
using core::Block;
using core::ChainConfig;
using core::IndexMode;
using core::MappedQueryView;
using core::ProofCache;
using core::TransformedQuery;
using core::VoKind;

/// How a mismatch node excludes a query's results.
template <typename Engine>
struct SubExclusion {
  bool is_cell = false;
  uint32_t clause_idx = 0;  ///< when !is_cell: index into the query's CNF
  CellBox cell;             ///< when is_cell: proven-object-free grid cell
  typename Engine::Proof proof;
};

template <typename Engine>
struct SubVoNode {
  VoKind kind = VoKind::kExpand;
  typename Engine::ObjectDigest digest;
  uint32_t object_ref = 0;                       // kMatch
  chain::Hash32 inner_hash{};                    // kMismatch
  std::vector<SubExclusion<Engine>> exclusions;  // kMismatch
  int32_t left = -1, right = -1;                 // kExpand
};

/// Per-(query, block) realtime notification.
template <typename Engine>
struct SubNotification {
  uint32_t query_id = 0;
  uint64_t height = 0;
  std::vector<Object> objects;
  std::vector<SubVoNode<Engine>> nodes;
  int32_t root = -1;
};

/// Lazy-mode batch: proves blocks [from_height, to_height] had no results
/// (all excluded by one clause), optionally followed by a fully-processed
/// match block at to_height + 1.
template <typename Engine>
struct LazyBatch {
  struct BlockUnit {
    uint64_t height = 0;
    chain::Hash32 inner_hash{};
    typename Engine::ObjectDigest digest;
  };
  struct SkipUnit {
    uint64_t from_height = 0;  ///< block owning the skip entry
    uint32_t level = 0;
    uint64_t distance = 0;
    typename Engine::ObjectDigest digest;
    std::vector<chain::Hash32> other_entry_hashes;
  };
  using Unit = std::variant<BlockUnit, SkipUnit>;

  uint32_t query_id = 0;
  bool has_pending = false;
  uint64_t from_height = 0, to_height = 0;
  uint32_t clause_idx = 0;  ///< shared exclusion clause for all units
  std::vector<Unit> units;  ///< ascending heights, covering [from, to]
  std::optional<typename Engine::Proof> agg_proof;

  std::optional<SubNotification<Engine>> match;  ///< the flushing block
};

/// The full mutable subscription state, as one value: what a checkpoint
/// persists and a restarted SP restores. Ids are preserved (subscribers
/// hold them) and the id allocator resumes past every id ever handed out.
template <typename Engine>
struct SubscriptionSnapshot {
  struct Entry {
    uint32_t id = 0;
    Query query;
  };
  struct LazyEntry {
    uint32_t id = 0;
    uint32_t clause_idx = 0;
    Multiset w_sum;
    std::vector<typename LazyBatch<Engine>::Unit> units;
    std::vector<uint64_t> trailing_blocks;
  };
  uint32_t next_query_id = 0;
  std::vector<Entry> queries;    ///< ascending id
  std::vector<LazyEntry> lazy;   ///< ascending id, non-empty runs only
};

template <typename Engine>
class SubscriptionManager {
 public:
  struct Options {
    bool use_ip_tree = true;  ///< share decisions/proofs across queries
    bool lazy = false;        ///< Algorithm 5 (aggregating engine, not kNil)
    /// Prove range mismatches with grid-cell disjointness (sharable across
    /// queries with different ranges) before falling back to the query's own
    /// range-cover clause. Both strategies are sound; a range clause always
    /// exists, so this is purely a proof-sharing policy.
    bool prefer_cell_exclusions = false;
    IpTree::Options ip;
  };

  SubscriptionManager(const Engine& engine, const ChainConfig& config,
                      Options options)
      : engine_(engine),
        config_(config),
        options_(options),
        ip_tree_(config.schema, options.ip),
        cache_(config.proof_cache_capacity) {}

  /// Register a standing query; returns its id. Rejects a structurally
  /// invalid query (inverted/out-of-domain range, out-of-schema dimension,
  /// empty OR-clause) with Status::InvalidArgument instead of silently
  /// matching nothing. The raw unvalidated Subscribe this wrapped is gone —
  /// every registration validates.
  Result<uint32_t> TrySubscribe(const Query& q) {
    VCHAIN_RETURN_IF_ERROR(CheckLazyMode());
    VCHAIN_RETURN_IF_ERROR(core::ValidateQuery(q, config_.schema));
    uint32_t id = ip_tree_.Register(q);
    InstallRuntime(id, q);
    return id;
  }

  /// Deregister; any pending lazy run is dropped (a subscriber leaving
  /// forfeits its undelivered evidence — flush first to keep it).
  void Unsubscribe(uint32_t id) {
    auto it = runtime_.find(id);
    if (it == runtime_.end()) return;
    for (uint32_t cid : it->second.clause_ids) index_.Release(cid);
    runtime_.erase(it);
    lazy_state_.erase(id);
    ip_tree_.Deregister(id);
  }

  const IpTree& ip_tree() const { return ip_tree_; }
  const ClauseIndex& clause_index() const { return index_; }
  size_t NumActive() const { return runtime_.size(); }

  /// Realtime processing of a newly confirmed block: one notification per
  /// active query (ascending query id), byte-identical to what
  /// RebuildNotification returns for each query on its own.
  std::vector<SubNotification<Engine>> ProcessBlock(
      const Block<Engine>& block) {
    SubMetrics& m = SubMetrics::Get();
    metrics::ScopedTimer timer(m.match_seconds);
    std::vector<SubNotification<Engine>> out = ProcessBlockIndexed(block);
    m.notified->Inc(out.size());
    for (const auto& n : out) {
      if (!n.objects.empty()) m.matched->Inc();
    }
    return out;
  }

  /// Blocks one drain call processes before returning, so catching up on a
  /// long backlog never accumulates an unbounded notification vector —
  /// callers loop (publishing each batch) until `*next_height` reaches the
  /// source tip.
  static constexpr uint64_t kDefaultDrainBatch = 256;

  /// Drain blocks the SP has not yet published from a BlockSource
  /// (in-memory chain or disk-backed store): `*next_height` is the first
  /// unprocessed height, advanced by up to `max_blocks` per call. This is
  /// the standing-service loop — a restarted subscription SP re-opens its
  /// store, seeks to its checkpoint and loops this until caught up, a
  /// bounded batch at a time, regardless of how far the chain has grown
  /// past RAM.
  std::vector<SubNotification<Engine>> ProcessNewBlocks(
      const store::BlockSource<Engine>& source, uint64_t* next_height,
      uint64_t max_blocks = kDefaultDrainBatch) {
    std::vector<SubNotification<Engine>> out;
    for (uint64_t n = 0; n < max_blocks && *next_height < source.NumBlocks();
         ++n, ++*next_height) {
      auto batch = ProcessBlock(source.BlockAt(*next_height));
      out.insert(out.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
    }
    return out;
  }

  /// Lazy processing (acc2 only): returns batches for queries flushed by
  /// this block (matches); silent queries keep accumulating. A manager not
  /// built with Options::lazy returns nothing: only lazy registration
  /// checks that the chain has the index roots lazy units hash through.
  std::vector<LazyBatch<Engine>> ProcessBlockLazy(const Block<Engine>& block) {
    static_assert(Engine::kSupportsAggregation,
                  "lazy authentication requires an aggregating engine");
    if (!options_.lazy) return {};
    metrics::ScopedTimer timer(SubMetrics::Get().match_seconds);
    return ProcessBlockLazyIndexed(block);
  }

  /// Re-match one already-mined block against a single standing query —
  /// the redelivery path for a subscriber whose cursor fell behind the
  /// bounded event log (api::Service::EventsSince). A pure function of
  /// (block, query): the notification's bytes are identical to what the
  /// realtime drain produced for the same block, so redelivered events
  /// verify exactly like originals. NotFound for an id that is not
  /// currently registered.
  Result<SubNotification<Engine>> RebuildNotification(
      const Block<Engine>& block, uint32_t query_id) {
    if (runtime_.find(query_id) == runtime_.end()) {
      return Status::NotFound("unknown subscription id");
    }
    MaterializeRuntime(query_id);
    return BuildNotification(block, query_id);
  }

  /// Flush all pending lazy runs (subscription period end / deregistration).
  std::vector<LazyBatch<Engine>> FlushAll() {
    std::vector<LazyBatch<Engine>> out;
    for (auto& [id, state] : lazy_state_) {
      if (!state.units.empty()) {
        out.push_back(FlushState(id, &state));
      }
    }
    return out;
  }

  // --- checkpointing --------------------------------------------------------

  /// The registration + lazy-run state a checkpoint persists.
  SubscriptionSnapshot<Engine> Snapshot() const {
    SubscriptionSnapshot<Engine> snap;
    snap.next_query_id = ip_tree_.NextId();
    snap.queries.reserve(runtime_.size());
    for (const auto& [id, rt] : runtime_) {
      (void)rt;
      snap.queries.push_back({id, ip_tree_.QueryOf(id)});
    }
    for (const auto& [id, state] : lazy_state_) {
      if (state.units.empty()) continue;
      typename SubscriptionSnapshot<Engine>::LazyEntry e;
      e.id = id;
      e.clause_idx = state.clause_idx;
      e.w_sum = state.w_sum;
      e.units = state.units;
      e.trailing_blocks = state.trailing_blocks;
      snap.lazy.push_back(std::move(e));
    }
    return snap;
  }

  /// Restore a snapshot into a freshly constructed manager: re-registers
  /// every query under its original id (subscribers hold those ids) and
  /// reinstates pending lazy runs. Grid cells may differ from the pre-crash
  /// instance (insertion order differs) — notifications stay sound and
  /// verifiable; cross-restart byte equality is not part of the contract.
  Status Restore(const SubscriptionSnapshot<Engine>& snap) {
    VCHAIN_RETURN_IF_ERROR(CheckLazyMode());
    for (const auto& e : snap.queries) {
      VCHAIN_RETURN_IF_ERROR(core::ValidateQuery(e.query, config_.schema));
      VCHAIN_RETURN_IF_ERROR(ip_tree_.RegisterWithId(e.id, e.query));
      InstallRuntime(e.id, e.query);
    }
    ip_tree_.ReserveIds(snap.next_query_id);
    for (const auto& e : snap.lazy) {
      auto it = runtime_.find(e.id);
      if (it == runtime_.end()) {
        return Status::Corruption("lazy state for unknown subscription");
      }
      if (e.clause_idx >= it->second.clause_ids.size()) {
        return Status::Corruption("lazy clause index out of range");
      }
      LazyState st;
      st.clause_idx = e.clause_idx;
      st.w_sum = e.w_sum;
      st.units = e.units;
      st.trailing_blocks = e.trailing_blocks;
      lazy_state_[e.id] = std::move(st);
    }
    return Status::OK();
  }

  typename ProofCache<Engine>::Stats cache_stats() const {
    return cache_.stats();
  }

 private:
  struct QueryRuntime {
    /// Index of the first keyword clause (range covers precede keywords in
    /// TransformQuery's clause order); clause search starts here so shared
    /// keyword proofs are preferred over per-query range proofs.
    size_t first_keyword_clause = 0;
    /// Interned clause refs in TransformQuery order, plus the
    /// grouped-dispatch key (clause_ids + first_keyword_clause). Identical
    /// keys imply identical notifications up to query_id.
    std::vector<uint32_t> clause_ids;
    std::vector<uint32_t> group_key;
    /// Materialized on first use (only group representatives and
    /// redeliveries walk a proof tree). At a million standing queries the
    /// per-query mapped views would be the dominant memory, and the clause
    /// index's point is to not need them.
    std::unique_ptr<TransformedQuery> tq;
    std::unique_ptr<MappedQueryView> view;
  };

  struct LazyState {
    uint32_t clause_idx = 0;
    Multiset w_sum;
    std::vector<typename LazyBatch<Engine>::Unit> units;
    // Parallel bookkeeping for skip consolidation: heights of trailing
    // consecutive block units.
    std::vector<uint64_t> trailing_blocks;
  };

  /// Orders per-block candidate groups by clause content (keys point at the
  /// stable per-query group_key vectors; no per-block key copies).
  struct GroupKeyLess {
    bool operator()(const std::vector<uint32_t>* a,
                    const std::vector<uint32_t>* b) const {
      return *a < *b;
    }
  };

  static const Multiset& RootW(const Block<Engine>& block) {
    return block.block_w;
  }

  /// Lazy units authenticate each block through its index root, which a
  /// flat chain does not have (Block::root_index == -1, no nodes).
  Status CheckLazyMode() const {
    if (options_.lazy && config_.mode == IndexMode::kNil) {
      return Status::InvalidArgument(
          "lazy subscriptions need an intra-block index (mode != kNil)");
    }
    return Status::OK();
  }

  void InstallRuntime(uint32_t id, const Query& q) {
    QueryRuntime rt;
    rt.first_keyword_clause = q.ranges.size();
    TransformedQuery tq = core::TransformQuery(q, config_.schema);
    rt.clause_ids.reserve(tq.clauses.size());
    for (size_t ci = 0; ci < tq.clauses.size(); ++ci) {
      std::vector<uint64_t> mapped;
      mapped.reserve(tq.clauses[ci].DistinctSize());
      for (const Multiset::Entry& e : tq.clauses[ci].entries()) {
        mapped.push_back(engine_.MapElement(e.element));
      }
      rt.clause_ids.push_back(index_.Intern(tq.clauses[ci], std::move(mapped),
                                            ci < rt.first_keyword_clause));
    }
    rt.group_key = rt.clause_ids;
    rt.group_key.push_back(static_cast<uint32_t>(rt.first_keyword_clause));
    runtime_.emplace(id, std::move(rt));
  }

  /// The proof walk needs the full mapped view; build it on first use and
  /// keep it (a group representative that matched once likely matches
  /// again).
  QueryRuntime& MaterializeRuntime(uint32_t id) {
    QueryRuntime& rt = runtime_.at(id);
    if (!rt.view) {
      rt.tq = std::make_unique<TransformedQuery>(
          core::TransformQuery(ip_tree_.QueryOf(id), config_.schema));
      rt.view = std::make_unique<MappedQueryView>(engine_, *rt.tq);
    }
    return rt;
  }

  // --- block-driven matching ----------------------------------------------

  /// Map the block's root multiset once and mark every posting clause.
  void ProbeBlock(const Block<Engine>& block) {
    index_.BeginBlock();
    for (const Multiset::Entry& e : RootW(block).entries()) {
      index_.MarkElement(engine_.MapElement(e.element));
    }
  }

  /// MappedQueryView::FindDisjointClauseFrom on the root, answered from hit
  /// flags: first clause in wrap order from first_keyword_clause whose
  /// interned content was not hit by the block.
  int FirstNonHitClause(const QueryRuntime& rt) const {
    size_t n = rt.clause_ids.size();
    for (size_t k = 0; k < n; ++k) {
      size_t i = (rt.first_keyword_clause + k) % n;
      if (!index_.IsHit(rt.clause_ids[i])) return static_cast<int>(i);
    }
    return -1;
  }

  std::vector<SubNotification<Engine>> ProcessBlockIndexed(
      const Block<Engine>& block) {
    std::vector<SubNotification<Engine>> out;
    if (runtime_.empty()) return out;
    ProbeBlock(block);
    // The root-mismatch fast path needs the real tree root; flat-mode
    // blocks and cell-preferring policies route through the grouped full
    // walk instead (still one walk per distinct clause content).
    const bool fast = config_.mode != IndexMode::kNil &&
                      block.root_index >= 0 &&
                      !options_.prefer_cell_exclusions;
    std::unordered_map<uint32_t, SubNotification<Engine>> mismatch_tmpl;
    std::map<const std::vector<uint32_t>*, SubNotification<Engine>,
             GroupKeyLess>
        group_tmpl;
    SubMetrics& m = SubMetrics::Get();
    out.reserve(runtime_.size());
    for (auto& [id, rt] : runtime_) {
      int clause = FirstNonHitClause(rt);
      if (clause < 0) m.candidates->Inc();
      if (fast && clause >= 0) {
        uint32_t cid = rt.clause_ids[clause];
        auto it = mismatch_tmpl.find(cid);
        if (it == mismatch_tmpl.end()) {
          it = mismatch_tmpl.emplace(cid, BuildRootMismatch(block, cid))
                   .first;
        }
        SubNotification<Engine> notif = it->second;
        notif.query_id = id;
        notif.nodes[0].exclusions[0].clause_idx =
            static_cast<uint32_t>(clause);
        out.push_back(std::move(notif));
      } else {
        auto it = group_tmpl.find(&rt.group_key);
        if (it == group_tmpl.end()) {
          MaterializeRuntime(id);
          it = group_tmpl.emplace(&rt.group_key, BuildNotification(block, id))
                   .first;
        }
        SubNotification<Engine> notif = it->second;
        notif.query_id = id;
        out.push_back(std::move(notif));
      }
    }
    return out;
  }

  /// The shared root-mismatch notification for one exclusion clause:
  /// everything but query_id and the per-query clause_idx, built (and its
  /// proof probed) once per distinct clause per block. Field-for-field the
  /// root EmitSubtree mismatch emission.
  SubNotification<Engine> BuildRootMismatch(const Block<Engine>& block,
                                            uint32_t interned_clause) {
    SubNotification<Engine> notif;
    notif.height = block.header.height;
    const core::IndexNode<Engine>& u = block.nodes[block.root_index];
    SubVoNode<Engine> n;
    n.digest = u.digest;
    n.kind = VoKind::kMismatch;
    n.inner_hash = u.IsLeaf()
                       ? block.objects[u.object_index].Hash()
                       : crypto::HashPair(block.nodes[u.left].hash,
                                          block.nodes[u.right].hash);
    SubExclusion<Engine> ex;
    ex.is_cell = false;
    ex.proof = Prove(u.digest, u.w, index_.SetOf(interned_clause));
    n.exclusions.push_back(std::move(ex));
    notif.nodes.push_back(std::move(n));
    notif.root = 0;
    return notif;
  }

  std::vector<LazyBatch<Engine>> ProcessBlockLazyIndexed(
      const Block<Engine>& block) {
    std::vector<LazyBatch<Engine>> out;
    if (runtime_.empty()) return out;
    ProbeBlock(block);
    skip_memo_.clear();
    mapped_skips_.assign(block.skips.size(), {});
    mapped_skips_ready_.assign(block.skips.size(), false);
    std::map<const std::vector<uint32_t>*, SubNotification<Engine>,
             GroupKeyLess>
        group_tmpl;
    SubMetrics& m = SubMetrics::Get();
    for (auto& [id, rt] : runtime_) {
      LazyState& state = lazy_state_[id];
      int clause = FirstNonHitClause(rt);
      if (clause >= 0) {
        AppendPending(block, id, static_cast<uint32_t>(clause),
                      rt.clause_ids[static_cast<size_t>(clause)], &state,
                      &out);
      } else {
        m.candidates->Inc();
        LazyBatch<Engine> batch = FlushState(id, &state);
        auto it = group_tmpl.find(&rt.group_key);
        if (it == group_tmpl.end()) {
          MaterializeRuntime(id);
          it = group_tmpl.emplace(&rt.group_key, BuildNotification(block, id))
                   .first;
        }
        SubNotification<Engine> notif = it->second;
        notif.query_id = id;
        batch.match = std::move(notif);
        out.push_back(std::move(batch));
      }
    }
    return out;
  }

  /// Is the skip entry's summed multiset disjoint from the interned clause,
  /// in mapped space? Memoized per (level, clause content) per block — the
  /// decision depends on nothing per-query.
  bool SkipDisjointIndexed(size_t li, const core::SkipEntry<Engine>& skip,
                           uint32_t interned_clause) {
    uint64_t key = (static_cast<uint64_t>(li) << 32) | interned_clause;
    auto memo = skip_memo_.find(key);
    if (memo != skip_memo_.end()) return memo->second;
    if (!mapped_skips_ready_[li]) {
      std::vector<uint64_t>& mapped = mapped_skips_[li];
      mapped.reserve(skip.w.entries().size());
      for (const Multiset::Entry& e : skip.w.entries()) {
        mapped.push_back(engine_.MapElement(e.element));
      }
      std::sort(mapped.begin(), mapped.end());
      mapped_skips_ready_[li] = true;
    }
    const std::vector<uint64_t>& mapped = mapped_skips_[li];
    bool disjoint = true;
    for (uint64_t v : ClauseMapped(interned_clause)) {
      if (std::binary_search(mapped.begin(), mapped.end(), v)) {
        disjoint = false;
        break;
      }
    }
    skip_memo_.emplace(key, disjoint);
    return disjoint;
  }

  const std::vector<uint64_t>& ClauseMapped(uint32_t interned_clause) const {
    return index_.MappedOf(interned_clause);
  }

  // --- realtime proof walk -------------------------------------------------

  SubNotification<Engine> BuildNotification(const Block<Engine>& block,
                                            uint32_t query_id) {
    SubNotification<Engine> notif;
    notif.query_id = query_id;
    notif.height = block.header.height;
    if (config_.mode == IndexMode::kNil || block.root_index < 0) {
      // Flat fallback: every leaf individually.
      for (size_t i = 0; i < block.objects.size(); ++i) {
        notif.nodes.push_back(LeafNode(block, static_cast<int32_t>(i),
                                       query_id, &notif));
      }
      notif.root = -1;
    } else {
      notif.root = EmitSubtree(block, block.root_index, query_id, &notif);
    }
    return notif;
  }

  SubVoNode<Engine> LeafNode(const Block<Engine>& block, int32_t obj_idx,
                             uint32_t query_id,
                             SubNotification<Engine>* notif) {
    const QueryRuntime& rt = runtime_.at(query_id);
    SubVoNode<Engine> n;
    n.digest = block.leaf_digests[obj_idx];
    const Multiset& w = block.object_ws[obj_idx];
    rt.view->MapForMatch(engine_, w, &mapped_w_);
    if (rt.view->Matches(mapped_w_)) {
      n.kind = VoKind::kMatch;
      n.object_ref = static_cast<uint32_t>(notif->objects.size());
      notif->objects.push_back(block.objects[obj_idx]);
    } else {
      n.kind = VoKind::kMismatch;
      n.inner_hash = block.objects[obj_idx].Hash();
      FillExclusions(w, n.digest, query_id, &n);
    }
    return n;
  }

  /// True iff every terminal cell of the query avoids `w` (then cell
  /// exclusions jointly exclude the query's whole range).
  bool AllCellsDisjoint(uint32_t query_id, const Multiset& w) {
    if (!ip_tree_.IsIndexable(query_id)) return false;
    const auto& cells = ip_tree_.TerminalCells(query_id);
    if (cells.empty()) return false;
    for (const CellBox& c : cells) {
      if (CellIntersects(w, c)) return false;
    }
    return true;
  }

  int32_t EmitSubtree(const Block<Engine>& block, int32_t node_idx,
                      uint32_t query_id, SubNotification<Engine>* notif) {
    const QueryRuntime& rt = runtime_.at(query_id);
    const core::IndexNode<Engine>& u = block.nodes[node_idx];
    // Prunable?
    bool cell_prunable =
        options_.prefer_cell_exclusions && AllCellsDisjoint(query_id, u.w);
    if (!cell_prunable) rt.view->MapForMatch(engine_, u.w, &mapped_w_);
    int clause = cell_prunable
                     ? -1
                     : rt.view->FindDisjointClauseFrom(
                           mapped_w_, rt.first_keyword_clause);
    if (clause < 0 && !cell_prunable) {
      cell_prunable = !options_.prefer_cell_exclusions &&
                      AllCellsDisjoint(query_id, u.w);
    }
    SubVoNode<Engine> n;
    n.digest = u.digest;
    if (clause >= 0 || cell_prunable) {
      n.kind = VoKind::kMismatch;
      n.inner_hash = u.IsLeaf()
                         ? block.objects[u.object_index].Hash()
                         : crypto::HashPair(block.nodes[u.left].hash,
                                            block.nodes[u.right].hash);
      if (clause >= 0) {
        AddClauseExclusion(u.w, n.digest, query_id,
                           static_cast<uint32_t>(clause), &n);
      } else {
        for (const CellBox& c : ip_tree_.TerminalCells(query_id)) {
          AddCellExclusion(u.w, n.digest, c, &n);
        }
      }
      notif->nodes.push_back(std::move(n));
      return static_cast<int32_t>(notif->nodes.size()) - 1;
    }
    if (u.IsLeaf()) {
      notif->nodes.push_back(LeafNode(block, u.object_index, query_id, notif));
      return static_cast<int32_t>(notif->nodes.size()) - 1;
    }
    n.kind = VoKind::kExpand;
    n.left = EmitSubtree(block, u.left, query_id, notif);
    n.right = EmitSubtree(block, u.right, query_id, notif);
    notif->nodes.push_back(std::move(n));
    return static_cast<int32_t>(notif->nodes.size()) - 1;
  }

  /// Leaf-level exclusions, honoring the cell-vs-clause policy. A range
  /// mismatch always has a disjoint range-cover clause, so cells are an
  /// optional sharing strategy, never a necessity.
  void FillExclusions(const Multiset& w,
                      const typename Engine::ObjectDigest& digest,
                      uint32_t query_id, SubVoNode<Engine>* n) {
    const QueryRuntime& rt = runtime_.at(query_id);
    if (options_.prefer_cell_exclusions && AllCellsDisjoint(query_id, w)) {
      for (const CellBox& c : ip_tree_.TerminalCells(query_id)) {
        AddCellExclusion(w, digest, c, n);
      }
      return;
    }
    rt.view->MapForMatch(engine_, w, &mapped_w_);
    int clause =
        rt.view->FindDisjointClauseFrom(mapped_w_, rt.first_keyword_clause);
    assert(clause >= 0);
    AddClauseExclusion(w, digest, query_id, static_cast<uint32_t>(clause), n);
  }

  void AddClauseExclusion(const Multiset& w,
                          const typename Engine::ObjectDigest& digest,
                          uint32_t query_id, uint32_t clause_idx,
                          SubVoNode<Engine>* n) {
    const QueryRuntime& rt = runtime_.at(query_id);
    auto proof = Prove(digest, w, index_.SetOf(rt.clause_ids[clause_idx]));
    SubExclusion<Engine> ex;
    ex.is_cell = false;
    ex.clause_idx = clause_idx;
    ex.proof = std::move(proof);
    n->exclusions.push_back(std::move(ex));
  }

  void AddCellExclusion(const Multiset& w,
                        const typename Engine::ObjectDigest& digest,
                        const CellBox& cell, SubVoNode<Engine>* n) {
    Multiset set = cell.PrefixMultiset(config_.schema);
    auto proof = Prove(digest, w, set);
    SubExclusion<Engine> ex;
    ex.is_cell = true;
    ex.cell = cell;
    ex.proof = std::move(proof);
    n->exclusions.push_back(std::move(ex));
  }

  bool CellIntersects(const Multiset& w, const CellBox& cell) {
    Multiset set = cell.PrefixMultiset(config_.schema);
    return accum::MappedIntersects(engine_, w, set);
  }

  typename Engine::Proof Prove(const typename Engine::ObjectDigest& digest,
                               const Multiset& w, const Multiset& set) {
    if (options_.use_ip_tree) {
      auto proof = cache_.GetOrProve(engine_, digest, w, set);
      assert(proof.ok());
      return proof.TakeValue();
    }
    // nip: no cross-query sharing — always recompute.
    auto proof = engine_.ProveDisjoint(w, set);
    assert(proof.ok());
    return proof.TakeValue();
  }

  // --- lazy ---------------------------------------------------------------

  /// Append `block` to the query's silent run, flushing first when the
  /// exclusion clause changes. Consolidates through the block's skip list
  /// when `interned_clause` avoids a skip's summed multiset.
  void AppendPending(const Block<Engine>& block, uint32_t query_id,
                     uint32_t clause_idx, uint32_t interned_clause,
                     LazyState* state, std::vector<LazyBatch<Engine>>* out) {
    if (!state->units.empty() && state->clause_idx != clause_idx) {
      out->push_back(FlushState(query_id, state));
    }
    state->clause_idx = clause_idx;
    // Try consolidating the trailing run through this block's skip list
    // (largest distance first), then push this block's own unit.
    if (config_.mode == IndexMode::kBoth) {
      for (size_t li = block.skips.size(); li-- > 0;) {
        const core::SkipEntry<Engine>& skip = block.skips[li];
        if (state->trailing_blocks.size() < skip.distance) continue;
        // The trailing `distance` block units must be exactly the previous
        // `distance` heights (contiguity).
        uint64_t h = block.header.height;
        bool contiguous = true;
        size_t nb = state->trailing_blocks.size();
        for (uint64_t k = 0; k < skip.distance; ++k) {
          if (state->trailing_blocks[nb - 1 - k] != h - 1 - k) {
            contiguous = false;
            break;
          }
        }
        if (!contiguous) continue;
        // The skip's summed multiset must still avoid the clause.
        if (!SkipDisjointIndexed(li, skip, interned_clause)) continue;
        // Replace the run with one skip unit.
        for (uint64_t k = 0; k < skip.distance; ++k) {
          state->units.pop_back();
          state->trailing_blocks.pop_back();
        }
        typename LazyBatch<Engine>::SkipUnit su;
        su.from_height = block.header.height;
        su.level = static_cast<uint32_t>(li);
        su.distance = skip.distance;
        su.digest = skip.digest;
        for (size_t other = 0; other < block.skips.size(); ++other) {
          if (other != li) {
            su.other_entry_hashes.push_back(block.skips[other].entry_hash);
          }
        }
        state->units.emplace_back(std::move(su));
        break;
      }
    }
    typename LazyBatch<Engine>::BlockUnit bu;
    bu.height = block.header.height;
    const core::IndexNode<Engine>& root = block.nodes[block.root_index];
    bu.inner_hash = root.IsLeaf()
                        ? block.objects[root.object_index].Hash()
                        : crypto::HashPair(block.nodes[root.left].hash,
                                           block.nodes[root.right].hash);
    bu.digest = root.digest;
    state->units.emplace_back(std::move(bu));
    state->trailing_blocks.push_back(block.header.height);
    state->w_sum = state->w_sum.SumWith(RootW(block));
  }

  LazyBatch<Engine> FlushState(uint32_t query_id, LazyState* state) {
    LazyBatch<Engine> batch;
    batch.query_id = query_id;
    if (!state->units.empty()) {
      batch.has_pending = true;
      batch.clause_idx = state->clause_idx;
      batch.units = std::move(state->units);
      // Heights covered: derive from the unit list.
      batch.from_height = UnitLow(batch.units.front());
      batch.to_height = UnitHigh(batch.units.back());
      const QueryRuntime& rt = runtime_.at(query_id);
      auto digest = engine_.Digest(state->w_sum);
      auto proof =
          cache_.GetOrProve(engine_, digest, state->w_sum,
                            index_.SetOf(rt.clause_ids[batch.clause_idx]));
      assert(proof.ok());
      batch.agg_proof = proof.TakeValue();
    }
    *state = LazyState{};
    return batch;
  }

  static uint64_t UnitLow(const typename LazyBatch<Engine>::Unit& u) {
    if (std::holds_alternative<typename LazyBatch<Engine>::BlockUnit>(u)) {
      return std::get<typename LazyBatch<Engine>::BlockUnit>(u).height;
    }
    const auto& s = std::get<typename LazyBatch<Engine>::SkipUnit>(u);
    return s.from_height - s.distance;
  }
  static uint64_t UnitHigh(const typename LazyBatch<Engine>::Unit& u) {
    if (std::holds_alternative<typename LazyBatch<Engine>::BlockUnit>(u)) {
      return std::get<typename LazyBatch<Engine>::BlockUnit>(u).height;
    }
    const auto& s = std::get<typename LazyBatch<Engine>::SkipUnit>(u);
    return s.from_height - 1;
  }

  Engine engine_;
  ChainConfig config_;
  Options options_;
  IpTree ip_tree_;
  ClauseIndex index_;
  std::map<uint32_t, QueryRuntime> runtime_;
  std::map<uint32_t, LazyState> lazy_state_;
  ProofCache<Engine> cache_;
  std::vector<uint64_t> mapped_w_;  // per-node mapping scratch
  // Per-block lazy-mode scratch: mapped skip multisets by
  // level and the (level, clause) disjointness memo.
  std::vector<std::vector<uint64_t>> mapped_skips_;
  std::vector<bool> mapped_skips_ready_;
  std::unordered_map<uint64_t, bool> skip_memo_;
};

}  // namespace vchain::sub

#endif  // VCHAIN_SUB_SUBSCRIPTION_H_
