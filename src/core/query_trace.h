// Per-query stage trace: where did this query's wall time go?
//
// The paper's evaluation (vChain §8) breaks SP cost into window lookup,
// clause matching, disjointness proving, and MSM. The one measurement is
// the causal span tree (common/span.h): QueryProcessor::TimeWindowQuery
// opens a span per stage when handed a QueryTrace, the api tier adds the
// serialize span and closes the root. kQueryStages lists the primary
// stages once; FoldStages() turns a tree into per-stage times by span name,
// and everything that reports stages (the stage histograms, the slow-query
// warn log, the X-Vchain-Trace header, bench_query_stages) loops over that
// list. Adding a stage is one SpanBegin plus one entry here.
//
// Two invariants:
//   * Tracing never touches query semantics — it reads clocks and bumps
//     counters, so VO bytes are bit-identical with tracing on or off
//     (asserted in tests/net/net_e2e_test.cc).
//   * The primary stages are non-overlapping and cover the whole
//     processor+serialize path, so their sum tracks the root span's
//     duration to within scheduling noise (the acceptance bound is ~10%).
//     "msm" is an informational sub-stage of aggregate (the
//     accumulate-then-digest multi-scalar exponentiation), not a seventh
//     term of the sum.
//
// All times are monotonic-clock nanoseconds (metrics::MonotonicNanos).

#ifndef VCHAIN_CORE_QUERY_TRACE_H_
#define VCHAIN_CORE_QUERY_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/span.h"

namespace vchain::core {

/// The primary, non-overlapping query stages in pipeline order — span names:
///   setup          validation, keyword mapping, processor setup
///   window_lookup  [ts, te] -> height range
///   match_walk     block walk: clause matching, mismatch recording, skips
///   aggregate      summed-multiset digesting (the MSM)
///   prove          disjointness proving (inline under the walk, or the
///                  aggregated proofs under aggregate)
///   serialize      canonical VO encoding (api tier)
inline constexpr std::array<const char*, 6> kQueryStages = {
    "setup", "window_lookup", "match_walk", "aggregate", "prove", "serialize"};
inline constexpr size_t kNumQueryStages = kQueryStages.size();

/// Informational sub-stage of aggregate: the engine digest of summed
/// multisets. Reported beside the stages, never part of their sum.
inline constexpr const char* kMsmSpan = "msm";

/// Stage times folded from one span tree.
struct StageTimes {
  uint64_t total_ns = 0;  ///< the root span (0 while it is open)
  std::array<uint64_t, kNumQueryStages> stage_ns{};  ///< by kQueryStages
  uint64_t msm_ns = 0;

  /// Sum of the non-overlapping stages — the number the ~10%-of-total
  /// acceptance bound is checked against.
  uint64_t StageSumNs() const {
    uint64_t sum = 0;
    for (uint64_t ns : stage_ns) sum += ns;
    return sum;
  }
};

/// Index of `name` in kQueryStages, or -1. Two translation units may not
/// pool identical literals, so this compares contents, not pointers.
inline int QueryStageIndex(const char* name) {
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    if (std::string_view(name) == kQueryStages[i]) return static_cast<int>(i);
  }
  return -1;
}

/// One pass over `tree` under its lock. A stage's time is the summed
/// duration of its spans minus the stage spans nested under them (nearest
/// stage ancestor; e.g. inline prove under match_walk), clamped at 0. Spans
/// of unlisted names (msm, block_read) are subtracted from
/// nothing; msm is summed on its own. A span the tree dropped at kMaxSpans
/// was never recorded, so its time stays inside its would-be parent.
inline StageTimes FoldStages(const trace::SpanTree& tree) {
  return tree.WithSpans([](const std::vector<trace::Span>& spans) {
    StageTimes out;
    std::array<uint64_t, kNumQueryStages> nested{};
    for (const trace::Span& s : spans) {
      const uint64_t d = s.DurationNs();
      const int stage = QueryStageIndex(s.name);
      if (stage < 0) {
        if (std::string_view(s.name) == kMsmSpan) out.msm_ns += d;
        continue;
      }
      out.stage_ns[stage] += d;
      // Ancestors have smaller ids; the bound also stops a bogus parent.
      for (uint32_t p = s.parent; p != 0 && p < s.id;
           p = spans[p - 1].parent) {
        const int up = QueryStageIndex(spans[p - 1].name);
        if (up >= 0) {
          nested[up] += d;
          break;
        }
      }
    }
    for (size_t i = 0; i < kNumQueryStages; ++i) {
      out.stage_ns[i] = out.stage_ns[i] > nested[i]
                            ? out.stage_ns[i] - nested[i] : 0;
    }
    out.total_ns = spans.front().DurationNs();
    return out;
  });
}

struct QueryTrace {
  // --- Work counts. ---
  uint64_t blocks_walked = 0;
  uint64_t skips_taken = 0;       // skip-list hops that replaced block walks
  uint64_t nodes_visited = 0;     // intra-block tree nodes examined
  uint64_t results_matched = 0;   // objects returned
  uint64_t proofs_computed = 0;   // ProveDisjoint executions (cache misses)
  uint64_t proof_cache_hits = 0;
  uint64_t proof_cache_misses = 0;

  /// The causal span tree the stage times are folded from. Shared so the
  /// retention ring can outlive the QueryTrace.
  std::shared_ptr<trace::SpanTree> spans;

  /// The tree, creating it (rooted at `root`, started now) on first use.
  trace::SpanTree* EnsureSpans(const char* root = "query") {
    if (spans == nullptr) spans = std::make_shared<trace::SpanTree>(root);
    return spans.get();
  }

  /// The stage times (all zero without a tree).
  StageTimes Stages() const {
    return spans != nullptr ? FoldStages(*spans) : StageTimes{};
  }

  /// Spans emitted into the ToJson header payload at most — keeps the
  /// X-Vchain-Trace header comfortably under the client's 16 KB
  /// response-head cap even for pathological walks.
  static constexpr size_t kMaxJsonSpans = 64;

  /// Compact single-line JSON — header-safe (ASCII, no CR/LF), hand
  /// rolled so core does not depend on the net tier's codec. Flat keys
  /// first: total_ns, one <stage>_ns per stage, msm_ns, the work counts;
  /// then, when a span tree is attached, "spans_dropped" and the tree as
  /// "spans" (capped at kMaxJsonSpans).
  std::string ToJson() const {
    std::string out = "{";
    auto kv = [&out](std::string_view key, std::string_view suffix,
                     uint64_t value) {
      if (out.size() > 1) out.push_back(',');
      out.push_back('"');
      out.append(key).append(suffix).append("\":");
      out.append(std::to_string(value));
    };
    const StageTimes st = Stages();
    kv("total", "_ns", st.total_ns);
    for (size_t i = 0; i < kNumQueryStages; ++i) {
      kv(kQueryStages[i], "_ns", st.stage_ns[i]);
    }
    kv(kMsmSpan, "_ns", st.msm_ns);
    kv("blocks_walked", "", blocks_walked);
    kv("skips_taken", "", skips_taken);
    kv("nodes_visited", "", nodes_visited);
    kv("results_matched", "", results_matched);
    kv("proofs_computed", "", proofs_computed);
    kv("proof_cache_hits", "", proof_cache_hits);
    kv("proof_cache_misses", "", proof_cache_misses);
    if (spans != nullptr) {
      kv("spans_dropped", "", spans->DroppedSpans());
      out.append(",\"spans\":");
      spans->AppendJson(&out, kMaxJsonSpans);
    }
    out.push_back('}');
    return out;
  }
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_QUERY_TRACE_H_
