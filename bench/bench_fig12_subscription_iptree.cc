// Fig 12 — SP processing cost for subscription queries with and without the
// IP-Tree (proof sharing), realtime and lazy, as the number of registered
// queries grows. Reported per dataset, acc2 only (as in the paper).

#include "sub_harness.h"

using namespace vchain;
using namespace vchain::bench;

int main() {
  Scale scale = GetScale();
  size_t period = scale.window_blocks[0];  // short fixed period
  std::printf("# Fig 12 — subscription SP cost vs number of queries "
              "(period=%zu blocks, acc2)\n", period);
  std::printf("%-8s %-14s %9s %12s\n", "dataset", "scheme", "queries",
              "sp_cpu_s");
  for (DatasetKind kind :
       {DatasetKind::k4SQ, DatasetKind::kWX, DatasetKind::kETH}) {
    DatasetProfile profile =
        workload::ProfileFor(kind, scale.objects_per_block);
    ChainConfig config = ConfigFor(profile, IndexMode::kBoth);
    for (size_t n : scale.sub_query_counts) {
      struct Variant {
        const char* name;
        bool lazy, ip;
      };
      for (const Variant& v :
           {Variant{"real-nip-acc2", false, false},
            Variant{"real-ip-acc2", false, true},
            Variant{"lazy-nip-acc2", true, false},
            Variant{"lazy-ip-acc2", true, true}}) {
        SubSessionOptions so;
        so.lazy = v.lazy;
        so.use_ip_tree = v.ip;
        SubCosts c =
            RunSubscriptionSession<Acc2Engine>(profile, config, period, n, so);
        std::printf("%-8s %-14s %9zu %12.4f\n", workload::DatasetName(kind),
                    v.name, n, c.sp_seconds);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
