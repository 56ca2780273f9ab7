// Store I/O microbenchmark — append throughput of the durable block store
// and cold-vs-warm time-window query latency through the store's
// decoded-block LRU (ConcurrentStoreBlockSource). Emits BENCH_store_io.json
// for cross-PR tracking.
//
//   append-batched : write-through mining, one fsync at the end
//   append-fsync   : write-through mining, fsync per block
//   query-mem      : in-memory chain (the pre-store baseline)
//   query-cold     : reopened store, empty block cache (all misses)
//   query-warm     : same source again (window resident, all hits)
//
// The query rows are medians with p10/p90 over kQueryReps interleaved
// repetitions; every sample uses a fresh processor (no proof-cache
// carry-over), every cold sample a freshly reopened store, and the
// in-memory sample alternates between first and last in its repetition so
// no variant always pays the process's first-query warm-up.

#include <filesystem>

#include "harness.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

std::string FreshDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("vchain_bench_store_") + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

constexpr size_t kQueryReps = 15;

struct AppendPoint {
  double seconds = 0;
  uint64_t bytes = 0;
};

AppendPoint MineThrough(const DatasetProfile& profile,
                        const ChainConfig& config, size_t blocks,
                        const char* tag, bool sync_every_append) {
  std::string dir = FreshDir(tag);
  store::BlockStore::Options options;
  options.sync_every_append = sync_every_append;
  auto db = store::BlockStore::Open(dir, options);
  if (!db.ok()) std::abort();

  Acc2Engine engine(SharedOracle(), ProverMode::kTrustedFast);
  core::ChainBuilder<Acc2Engine> miner(engine, config);
  if (!miner.AttachStore(db.value().get()).ok()) std::abort();

  DatasetGenerator gen(profile, /*seed=*/4242);
  // Pre-generate blocks so the timer sees mining+persistence, not dataset
  // synthesis.
  std::vector<std::vector<chain::Object>> data;
  for (size_t b = 0; b < blocks; ++b) data.push_back(gen.NextBlock());

  Timer t;
  for (auto& objs : data) {
    uint64_t ts = objs.front().timestamp;
    if (!miner.AppendBlock(std::move(objs), ts).ok()) std::abort();
  }
  if (!db.value()->Sync().ok()) std::abort();
  AppendPoint point;
  point.seconds = t.ElapsedSeconds();
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) point.bytes += entry.file_size();
  }
  std::filesystem::remove_all(dir);
  return point;
}

}  // namespace

int main() {
  Scale scale = GetScale();
  size_t blocks = scale.window_blocks.back();
  size_t window = scale.window_blocks[scale.window_blocks.size() / 2];
  DatasetProfile profile =
      workload::ProfileFor(workload::DatasetKind::k4SQ,
                           scale.objects_per_block);
  ChainConfig config = ConfigFor(profile, IndexMode::kBoth);

  std::printf("# store I/O — durable block store append + query latency "
              "(%zu blocks, %zu objects/block)\n",
              blocks, profile.objects_per_block);
  BenchJson json("store_io");

  // --- append throughput -----------------------------------------------------
  for (bool sync_each : {false, true}) {
    AppendPoint p = MineThrough(profile, config, blocks,
                                sync_each ? "fsync" : "batched", sync_each);
    const char* op = sync_each ? "append-fsync" : "append-batched";
    double per_block_ns = p.seconds * 1e9 / static_cast<double>(blocks);
    double blocks_per_s = static_cast<double>(blocks) / p.seconds;
    std::printf("%-16s %6zu blocks  %10.0f ns/block  %10.1f blocks/s  "
                "%8.1f KiB on disk\n",
                op, blocks, per_block_ns, blocks_per_s,
                static_cast<double>(p.bytes) / 1024);
    json.Add(op, blocks, per_block_ns, blocks_per_s);
  }

  // --- cold vs warm window queries -------------------------------------------
  std::string dir = FreshDir("query");
  auto db = store::BlockStore::Open(dir);
  if (!db.ok()) std::abort();
  Acc2Engine engine(SharedOracle(), ProverMode::kTrustedFast);
  core::ChainBuilder<Acc2Engine> miner(engine, config);
  if (!miner.AttachStore(db.value().get()).ok()) std::abort();
  DatasetGenerator gen(profile, /*seed=*/4242);
  for (size_t b = 0; b < blocks; ++b) {
    auto objs = gen.NextBlock();
    uint64_t ts = objs.front().timestamp;
    if (!miner.AppendBlock(std::move(objs), ts).ok()) std::abort();
  }
  if (!db.value()->Sync().ok()) std::abort();

  uint64_t t_start = miner.blocks()[blocks - window].header.timestamp;
  uint64_t t_end = miner.blocks()[blocks - 1].header.timestamp;
  DatasetGenerator qgen(profile, /*seed=*/4242);
  core::Query q = qgen.MakeQuery(profile.default_selectivity,
                                 profile.default_clause_size, t_start, t_end);

  auto run_query = [&](const store::BlockSource<Acc2Engine>& source) {
    core::QueryProcessor<Acc2Engine> sp(engine, config, &source);
    Timer t;
    auto resp = sp.TimeWindowQuery(q);
    if (!resp.ok()) std::abort();
    return t.ElapsedSeconds() * 1e9;
  };

  std::vector<double> mem_ns, cold_ns, warm_ns;
  uint64_t cold_misses = 0, warm_hits = 0;
  store::VectorBlockSource<Acc2Engine> mem_source(&miner.blocks());
  for (size_t rep = 0; rep < kQueryReps; ++rep) {
    const bool mem_first = rep % 2 == 0;
    // Baseline: fully-resident chain.
    if (mem_first) mem_ns.push_back(run_query(mem_source));
    {
      // Cold: reopened store, empty LRU — every block faults in from disk.
      auto db2 = store::BlockStore::Open(dir);
      if (!db2.ok()) std::abort();
      store::ConcurrentStoreBlockSource<Acc2Engine> disk(
          engine, db2.value().get(), config.block_cache_blocks);
      auto handle = disk.MakeHandle();
      cold_ns.push_back(run_query(handle));
      cold_misses = disk.cache_stats().misses;
      // Warm: the window is now resident; the fresh processor isolates the
      // block-cache effect.
      warm_ns.push_back(run_query(handle));
      warm_hits = disk.cache_stats().hits;
    }
    if (!mem_first) mem_ns.push_back(run_query(mem_source));
  }
  auto emit = [&](const char* op, const std::vector<double>& ns,
                  const char* note, uint64_t count) {
    const double median = Quantile(ns, 0.5);
    std::printf("%-16s %6zu blocks  %10.0f ns  p10 %10.0f  p90 %10.0f",
                op, window, median, Quantile(ns, 0.1), Quantile(ns, 0.9));
    if (note != nullptr) {
      std::printf("  (%llu %s)", static_cast<unsigned long long>(count), note);
    }
    std::printf("\n");
    json.Add(op, window, median, median > 0 ? 1e9 / median : 0,
             Quantile(ns, 0.1), Quantile(ns, 0.9));
  };
  emit("query-mem", mem_ns, nullptr, 0);
  emit("query-cold", cold_ns, "cache misses", cold_misses);
  emit("query-warm", warm_ns, "cache hits", warm_hits);
  std::filesystem::remove_all(dir);
  return 0;
}
