// Per-stage query cost breakdown from the live trace (core/query_trace.h):
// where does a server-side query's wall time actually go, per engine?
// Reproduces the paper's SP cost decomposition (vChain §8) as medians of
// the traced stages rather than ad-hoc stopwatch calls, so this bench and
// the production /metrics histograms can never disagree on definitions.
// The rows are "total" (Service::Query end to end, serialization
// included), one per core::kQueryStages entry, and "msm" (informational
// sub-stage of aggregate) — all folded from the span tree.
//
// Warm rows (`<stage>-<engine>`) repeat one query, so every sample after
// the first is answered from the proof cache. Cold rows
// (`<stage>-cold-<engine>`) draw a fresh predicate per sample over the same
// window (same selectivity and clause size), so each sample proves; the
// bench aborts if any cold sample computed no proof. acc2 proves its
// aggregated proofs inside the aggregate stage, so its cold proving shows
// there, not in "prove".
//
// A second, untraced service (ServiceOptions::tracing = false, the true
// zero-instrumentation path) answers the warm query; `total_untraced-<e>`
// and `trace_overhead_pct-<e>` pin the introspection plane's cost — the
// acceptance bound is a median overhead <= 3%.
//
// Emits BENCH_query_stages.json. `--quick` shrinks the workload for CI
// smoke; absolute numbers come from full runs.

#include "core/query_trace.h"
#include "harness.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

double Median(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

/// Row names: "total", each core::kQueryStages entry, then "msm".
std::vector<std::string> RowNames() {
  std::vector<std::string> names = {"total"};
  names.insert(names.end(), core::kQueryStages.begin(),
               core::kQueryStages.end());
  names.push_back(core::kMsmSpan);
  return names;
}

/// The stage loop: one traced query per entry of `queries`, one sample per
/// row from the folded span tree; returns the per-row medians. With `cold`,
/// every sample must have computed a proof.
std::vector<double> StageMedians(api::Service* svc,
                                 const std::vector<core::Query>& queries,
                                 bool cold) {
  std::vector<std::vector<double>> samples(RowNames().size());
  for (const core::Query& q : queries) {
    core::QueryTrace t;
    if (!svc->Query(q, &t).ok()) std::abort();
    if (cold && t.proofs_computed == 0) {
      std::fprintf(stderr, "cold sample computed no proof\n");
      std::abort();
    }
    const core::StageTimes st = t.Stages();
    size_t row = 0;
    samples[row++].push_back(static_cast<double>(st.total_ns));
    for (uint64_t ns : st.stage_ns) {
      samples[row++].push_back(static_cast<double>(ns));
    }
    samples[row++].push_back(static_cast<double>(st.msm_ns));
  }
  std::vector<double> medians;
  for (auto& row : samples) medians.push_back(Median(&row));
  return medians;
}

/// Print and record one row per stage; returns the total's median.
double EmitRows(const std::vector<double>& medians, const std::string& suffix,
                const char* engine_name, size_t blocks, BenchJson* json) {
  const std::vector<std::string> names = RowNames();
  const double total_median = medians[0];
  for (size_t r = 0; r < names.size(); ++r) {
    const double median = medians[r];
    const double share = total_median > 0 ? median / total_median : 0;
    std::printf("%-20s %-18s %14.0f %8.1f%%\n", (names[r] + suffix).c_str(),
                engine_name, median, share * 100);
    json->Add(names[r] + suffix + "-" + engine_name, blocks, median,
              median > 0 ? 1e9 / median : 0);
  }
  return total_median;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  Scale scale = GetScale();
  const size_t blocks = quick ? 8 : scale.window_blocks.back();
  const size_t iters = quick ? 3 : 25;

  DatasetProfile profile = workload::ProfileFor(workload::DatasetKind::k4SQ,
                                                scale.objects_per_block);

  std::printf("# query stages — per-stage server-side cost from the trace "
              "(%zu blocks, %zu iters%s)\n",
              blocks, iters, quick ? ", quick" : "");
  std::printf("%-20s %-18s %14s %9s\n", "stage", "engine", "median_ns",
              "share");
  BenchJson json("query_stages");

  for (api::EngineKind kind :
       {api::EngineKind::kMockAcc2, api::EngineKind::kAcc2}) {
    const char* engine_name = api::EngineKindName(kind);

    api::ServiceOptions opts;
    opts.engine = kind;
    opts.config = ConfigFor(profile, IndexMode::kBoth);
    opts.oracle = SharedOracle();
    opts.prover_mode = ProverMode::kTrustedFast;
    api::ServiceOptions opts_untraced = opts;
    opts_untraced.tracing = false;
    auto svc = api::Service::Open(opts).TakeValue();
    auto svc_untraced = api::Service::Open(opts_untraced).TakeValue();

    DatasetGenerator gen(profile, /*seed=*/1234);
    DatasetGenerator gen2(profile, /*seed=*/1234);
    for (size_t b = 0; b < blocks; ++b) {
      auto objs = gen.NextBlock();
      auto objs2 = gen2.NextBlock();
      uint64_t ts = objs.front().timestamp;
      if (!svc->Append(std::move(objs), ts).ok()) std::abort();
      if (!svc_untraced->Append(std::move(objs2), ts).ok()) std::abort();
    }

    auto headers = svc->Headers(0, blocks - 1).TakeValue();
    DatasetGenerator qgen(profile, /*seed=*/1234);
    core::Query q = qgen.MakeQuery(profile.default_selectivity,
                                   profile.default_clause_size,
                                   headers[blocks / 2].timestamp,
                                   headers.back().timestamp);

    const double total_median = EmitRows(
        StageMedians(svc.get(), std::vector<core::Query>(iters, q),
                     /*cold=*/false),
        "", engine_name, blocks, &json);
    // The untraced control: same chain, same query, tracing compiled in
    // but disabled — wall-clocked from outside since there is no trace to
    // read. Interleaving would hide cache asymmetry, but each service owns
    // its caches, so a straight second loop measures the same steady state.
    std::vector<double> untraced_ns;
    for (size_t i = 0; i < iters; ++i) {
      uint64_t t0 = metrics::MonotonicNanos();
      if (!svc_untraced->Query(q).ok()) std::abort();
      untraced_ns.push_back(
          static_cast<double>(metrics::MonotonicNanos() - t0));
    }
    double untraced_median = Median(&untraced_ns);
    double overhead_pct =
        untraced_median > 0
            ? (total_median - untraced_median) / untraced_median * 100
            : 0;
    std::printf("%-20s %-18s %14.0f %8s\n", "total_untraced", engine_name,
                untraced_median, "-");
    std::printf("%-20s %-18s %13.1f%% %8s\n", "trace_overhead", engine_name,
                overhead_pct, "-");
    json.Add(std::string("total_untraced-") + engine_name, blocks,
             untraced_median, untraced_median > 0 ? 1e9 / untraced_median : 0);
    json.Add(std::string("trace_overhead_pct-") + engine_name, blocks,
             overhead_pct, 0);

    // Cold proof cache: a fresh predicate per sample, same window.
    std::vector<core::Query> cold_queries;
    for (size_t i = 0; i < iters; ++i) {
      cold_queries.push_back(qgen.MakeQuery(profile.default_selectivity,
                                            profile.default_clause_size,
                                            q.time_start, q.time_end));
    }
    EmitRows(StageMedians(svc.get(), cold_queries, /*cold=*/true), "-cold",
             engine_name, blocks, &json);
  }
  return 0;
}
