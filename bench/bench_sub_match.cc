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
              "(%zu blocks, %zu templates, mock-acc2)\n",
              kPeriodBlocks, kTemplates);
  std::printf("%-10s %10s %16s %12s\n", "matcher", "subs", "per_block_ms",
              "speedup");

  BenchJson json("sub_match");
  for (size_t n : counts) {
    double linear_s = 0;
    bool have_linear = n <= kMaxLinearSubs;
    SubSessionOptions so;
    so.verify = false;
    so.measure_vo = false;
    so.n_templates = kTemplates;
    so.full_query_templates = true;
    if (have_linear) {
      SubCosts c = RunSubscriptionSession<accum::MockAcc2Engine>(
          profile, config, kPeriodBlocks, n, so, MatchPerQuery{});
      linear_s = c.sp_seconds / kPeriodBlocks;
      std::printf("%-10s %10zu %16.3f %12s\n", "linear", n, linear_s * 1e3,
                  "1.0x");
      json.Add("linear-per-block", n, linear_s * 1e9,
               linear_s > 0 ? 1.0 / linear_s : 0);
      std::fflush(stdout);
    }
    SubCosts c = RunSubscriptionSession<accum::MockAcc2Engine>(
        profile, config, kPeriodBlocks, n, so);
    double indexed_s = c.sp_seconds / kPeriodBlocks;
    char speedup[32];
    if (have_linear && indexed_s > 0) {
      std::snprintf(speedup, sizeof(speedup), "%.1fx", linear_s / indexed_s);
    } else {
      std::snprintf(speedup, sizeof(speedup), "-");
    }
    std::printf("%-10s %10zu %16.3f %12s\n", "indexed", n, indexed_s * 1e3,
                speedup);
    json.Add("indexed-per-block", n, indexed_s * 1e9,
             indexed_s > 0 ? 1.0 / indexed_s : 0);
    std::fflush(stdout);
  }
  return 0;
}
