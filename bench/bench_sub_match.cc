// Subscription matcher sweep — per-block SP matching cost of the
// clause-inverted index against per-query matching, from 10^3 to 10^6
// registered subscriptions.
//
// Per-query matching (§7's presentation; the `linear` rows) walks every
// standing query's proof tree on every block — one RebuildNotification per
// subscriber — so its per-block cost is Θ(n). The SP's matcher
// (SubscriptionManager::ProcessBlock; the `indexed` rows) probes the block's
// mapped elements once, proves once per distinct clause group, and pays per
// subscriber only a template stamp. Subscribers draw from a fixed pool of
// distinct interest templates (real pub/sub workloads share interests —
// the correlation §7.1's sharing exploits), so group count stays constant
// as n grows and the indexed curve should flatten toward the stamping
// floor: >=10x over linear at 10^5, and sublinear growth 10^5 -> 10^6.
//
// The mock acc2 engine isolates matching/dispatch cost from pairing
// crypto; Figs 12-15 cover the cryptographic side of subscriptions.
// `--quick` (CI smoke) caps the sweep at 10^4 subscriptions.
//
// Each row is the median over kReps sessions (fresh manager and chain each
// time) of the session's mean per-block cost, with the p10/p90 of those
// repetitions, so tools/bench_diff.py holds a row only to what its own
// run-to-run spread can resolve.

#include "sub_harness.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

/// The per-query baseline: one proof walk per subscriber, no grouping.
struct MatchPerQuery {
  /// A per-query matcher builds each subscriber's mapped view when it
  /// registers, not inside the timed block loop. A block with no objects and
  /// no tree walks nothing, so rebuilding against it only builds the views.
  template <typename Engine>
  void Prepare(sub::SubscriptionManager<Engine>& mgr) const {
    const core::Block<Engine> empty;
    for (uint32_t id : mgr.ip_tree().ActiveQueryIds()) {
      (void)mgr.RebuildNotification(empty, id);
    }
  }

  template <typename Engine>
  std::vector<sub::SubNotification<Engine>> operator()(
      sub::SubscriptionManager<Engine>& mgr,
      const core::Block<Engine>& block) const {
    std::vector<sub::SubNotification<Engine>> out;
    for (uint32_t id : mgr.ip_tree().ActiveQueryIds()) {
      out.push_back(mgr.RebuildNotification(block, id).TakeValue());
    }
    return out;
  }
};

/// Repetitions behind every row's median and p10/p90.
constexpr size_t kReps = 5;

struct Row {
  double median_s, p10_s, p90_s;
};

/// Mean per-block SP seconds of kReps sessions of `n` subscriptions.
template <typename Match = MatchByBlock>
Row RepeatSession(const DatasetProfile& profile, const ChainConfig& config,
                  size_t period_blocks, size_t n, const SubSessionOptions& so,
                  Match match = {}) {
  std::vector<double> per_block;
  for (size_t rep = 0; rep < kReps; ++rep) {
    SubCosts c = RunSubscriptionSession<accum::MockAcc2Engine>(
        profile, config, period_blocks, n, so, match);
    per_block.push_back(c.sp_seconds / static_cast<double>(period_blocks));
  }
  return {Quantile(per_block, 0.5), Quantile(per_block, 0.1),
          Quantile(per_block, 0.9)};
}

void AddRow(BenchJson* json, const char* op, size_t n, const Row& r) {
  json->Add(op, n, r.median_s * 1e9, r.median_s > 0 ? 1.0 / r.median_s : 0,
            r.p10_s * 1e9, r.p90_s * 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  constexpr size_t kPeriodBlocks = 4;
  constexpr size_t kTemplates = 128;  // distinct interests, fixed across n
  constexpr size_t kMaxLinearSubs = 100'000;
  std::vector<size_t> counts = {1'000, 10'000, 100'000, 1'000'000};
  if (quick) counts = {1'000, 10'000};

  Scale scale = GetScale();
  DatasetProfile profile =
      workload::ProfileFor(workload::DatasetKind::k4SQ, scale.objects_per_block);
  ChainConfig config = ConfigFor(profile, IndexMode::kBoth);

  std::printf("# subscription matcher sweep — per-block SP cost "
              "(%zu blocks, %zu templates, mock-acc2, median of %zu reps)\n",
              kPeriodBlocks, kTemplates, kReps);
  std::printf("%-10s %10s %16s %12s\n", "matcher", "subs", "per_block_ms",
              "speedup");

  BenchJson json("sub_match");
  for (size_t n : counts) {
    Row linear{};
    bool have_linear = n <= kMaxLinearSubs;
    SubSessionOptions so;
    so.verify = false;
    so.measure_vo = false;
    so.n_templates = kTemplates;
    so.full_query_templates = true;
    if (have_linear) {
      linear = RepeatSession(profile, config, kPeriodBlocks, n, so,
                             MatchPerQuery{});
      std::printf("%-10s %10zu %16.3f %12s\n", "linear", n,
                  linear.median_s * 1e3, "1.0x");
      AddRow(&json, "linear-per-block", n, linear);
      std::fflush(stdout);
    }
    Row indexed = RepeatSession(profile, config, kPeriodBlocks, n, so);
    char speedup[32];
    if (have_linear && indexed.median_s > 0) {
      std::snprintf(speedup, sizeof(speedup), "%.1fx",
                    linear.median_s / indexed.median_s);
    } else {
      std::snprintf(speedup, sizeof(speedup), "-");
    }
    std::printf("%-10s %10zu %16.3f %12s\n", "indexed", n,
                indexed.median_s * 1e3, speedup);
    AddRow(&json, "indexed-per-block", n, indexed);
    std::fflush(stdout);
  }
  return 0;
}
