// Concurrent-SP throughput through the vchain::Service front door.
//
// One disk-backed Service (shared mutex-striped proof cache, shared
// decoded-block LRU) is hammered by 1..8 query threads replaying a fixed
// mixed workload; reported throughput is total queries / wall time. The
// serial point doubles as the regression baseline for the erased API's
// overhead, and every thread cross-checks its responses against the
// single-threaded bytes (a cheap in-bench determinism probe — the real
// proof lives in tests/api/service_test.cc).
//
//   $ ./bench_service_concurrency          # writes BENCH_service_concurrency.json

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "harness.h"

namespace vchain::bench {
namespace {

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

std::vector<std::vector<chain::Object>> MakeBlocks(size_t num_blocks,
                                                   size_t per_block,
                                                   const chain::NumericSchema&
                                                       schema) {
  Rng rng(42);
  static const char* kTags[] = {"Sedan", "Van", "SUV", "Benz", "BMW", "Audi"};
  std::vector<std::vector<chain::Object>> out;
  uint64_t id = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    std::vector<chain::Object> objs;
    for (size_t i = 0; i < per_block; ++i) {
      chain::Object o;
      o.id = id++;
      o.timestamp = kBaseTime + b * kTimeStep;
      o.numeric = {rng.Below(schema.DomainSize()),
                   rng.Below(schema.DomainSize())};
      o.keywords = {kTags[rng.Below(3)], kTags[3 + rng.Below(3)]};
      objs.push_back(std::move(o));
    }
    out.push_back(std::move(objs));
  }
  return out;
}

std::vector<core::Query> MakeWorkload(size_t num_blocks,
                                      const chain::NumericSchema& schema) {
  uint64_t t_end = kBaseTime + (num_blocks - 1) * kTimeStep;
  uint64_t mid = schema.MaxValue() / 2;
  return {
      api::QueryBuilder().Window(kBaseTime, t_end).Range(0, 0, mid).Build(),
      api::QueryBuilder()
          .Window(kBaseTime + 4 * kTimeStep, t_end - 4 * kTimeStep)
          .Range(0, mid / 2, mid)
          .AllOf({"Sedan"})
          .AnyOf({"Benz", "BMW"})
          .Build(),
      api::QueryBuilder().Window(kBaseTime, t_end).AnyOf({"Van"}).Build(),
      api::QueryBuilder()
          .Window(t_end - 8 * kTimeStep, t_end)
          .Range(1, 0, mid)
          .AnyOf({"SUV", "Audi"})
          .Build(),
  };
}

void RunEngine(api::EngineKind kind, BenchJson* json) {
  chain::NumericSchema schema{2, 8};
  const size_t num_blocks = 24;

  auto dir = std::filesystem::temp_directory_path() /
             ("vchain_bench_svc_" + std::string(api::EngineKindName(kind)));
  std::filesystem::remove_all(dir);

  api::ServiceOptions opts;
  opts.engine = kind;
  opts.config.mode = core::IndexMode::kBoth;
  opts.config.schema = schema;
  opts.config.skiplist_size = 3;
  opts.config.block_cache_blocks = 8;  // below the walk: cache churn on
  opts.oracle = SharedOracle();
  opts.prover_mode = ProverMode::kTrustedFast;
  opts.store_dir = dir.string();
  auto svc = api::Service::Open(std::move(opts));
  if (!svc.ok()) {
    std::fprintf(stderr, "open failed: %s\n", svc.status().ToString().c_str());
    return;
  }
  auto blocks = MakeBlocks(num_blocks, 8, schema);
  for (const auto& objs : blocks) {
    if (!svc.value()->Append(objs, objs.front().timestamp).ok()) return;
  }
  auto workload = MakeWorkload(num_blocks, schema);

  // Single-threaded reference pass (also warms nothing: fresh service per
  // engine, and the proof cache is what we are measuring the sharing of).
  std::vector<Bytes> reference;
  for (const auto& q : workload) {
    auto r = svc.value()->Query(q);
    if (!r.ok()) return;
    reference.push_back(r.value().response_bytes);
  }

  const size_t kTotalQueries = 64;  // fixed total, split across threads
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::atomic<int> bad{0};
    Timer wall;
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = 0; i < kTotalQueries / threads; ++i) {
          size_t qi = (i + t) % workload.size();
          auto r = svc.value()->Query(workload[qi]);
          if (!r.ok() || r.value().response_bytes != reference[qi]) {
            bad.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    double secs = wall.ElapsedSeconds();
    double qps = static_cast<double>(kTotalQueries) / secs;
    std::printf("%-10s threads=%zu  %6.2f q/s  (%.1f ms total%s)\n",
                api::EngineKindName(kind), threads, qps, secs * 1e3,
                bad.load() != 0 ? ", MISMATCHES" : "");
    json->Add(std::string(api::EngineKindName(kind)) + "-qps", threads,
              secs / kTotalQueries * 1e9, qps);
    std::fflush(stdout);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vchain::bench

int main() {
  using vchain::api::EngineKind;
  std::printf("# service_concurrency — Service::Query throughput vs threads\n");
  std::printf("# disk-backed store, shared striped proof cache, fixed 64-query "
              "workload\n");
  vchain::bench::BenchJson json("service_concurrency");
  vchain::bench::RunEngine(EngineKind::kMockAcc2, &json);
  vchain::bench::RunEngine(EngineKind::kAcc2, &json);
  vchain::bench::RunEngine(EngineKind::kAcc1, &json);
  return 0;
}
