// Shared benchmark plumbing for the per-table / per-figure drivers.
//
// Every binary prints the same rows/series its paper counterpart reports.
// Absolute numbers differ from the paper (single laptop core vs a 24-thread
// Xeon SP, synthetic data, our own BN254); EXPERIMENTS.md tracks the curve
// *shapes*. Scales:
//   VCHAIN_BENCH_SCALE=small  (default) minutes-total run
//   VCHAIN_BENCH_SCALE=full   closer to paper magnitudes (much slower)

#ifndef VCHAIN_BENCH_HARNESS_H_
#define VCHAIN_BENCH_HARNESS_H_

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/vchain.h"
#include "workload/datasets.h"

namespace vchain::bench {

using accum::Acc1Engine;
using accum::Acc2Engine;
using accum::AccParams;
using accum::KeyOracle;
using accum::ProverMode;
using core::ChainBuilder;
using core::ChainConfig;
using core::IndexMode;
using core::Query;
using workload::DatasetGenerator;
using workload::DatasetKind;
using workload::DatasetProfile;

/// Machine-readable results alongside the human tables: every figure/table
/// driver appends rows and flushes `BENCH_<name>.json` on destruction, so
/// the perf trajectory can be diffed across PRs. A `meta` block records the
/// machine (online cores, CPU model): numbers from different machines are
/// not comparable.
class BenchJson {
 public:
  explicit BenchJson(const std::string& name) {
    for (char ch : name) {
      path_ += std::isalnum(static_cast<unsigned char>(ch))
                   ? static_cast<char>(std::tolower(static_cast<unsigned char>(ch)))
                   : '_';
    }
    path_ = "BENCH_" + path_ + ".json";
  }

  /// One measurement: `op` (scheme/operation), `n` (x-axis point, e.g.
  /// window size), median latency in ns, and throughput in ops/s.
  void Add(const std::string& op, size_t n, double median_ns,
           double throughput) {
    AddRow(op, n, median_ns, throughput, "");
  }

  /// A row measured over repetitions: its median plus the p10/p90 spread.
  void Add(const std::string& op, size_t n, double median_ns,
           double throughput, double p10, double p90) {
    char spread[96];
    std::snprintf(spread, sizeof(spread), ", \"p10\": %.1f, \"p90\": %.1f",
                  p10, p90);
    AddRow(op, n, median_ns, throughput, spread);
  }

  ~BenchJson() {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"meta\": {\"nproc\": %u, \"cpu_model\": \"%s\"},\n",
                 std::thread::hardware_concurrency(), CpuModel().c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s (%zu rows)\n", path_.c_str(),
                 rows_.size());
  }

 private:
  void AddRow(const std::string& op, size_t n, double median_ns,
              double throughput, const char* extra) {
    char row[384];
    std::snprintf(row, sizeof(row),
                  "    {\"op\": \"%s\", \"n\": %zu, \"median_ns\": %.1f, "
                  "\"throughput\": %.4f%s}",
                  op.c_str(), n, median_ns, throughput, extra);
    rows_.push_back(row);
  }

  /// The first "model name" of /proc/cpuinfo ("unknown" elsewhere), with
  /// JSON-unsafe characters dropped.
  static std::string CpuModel() {
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr) return "unknown";
    std::string model = "unknown";
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      std::string l(line);
      if (l.rfind("model name", 0) != 0) continue;
      size_t colon = l.find(':');
      if (colon == std::string::npos) break;
      model.clear();
      for (char ch : l.substr(colon + 1)) {
        const bool safe = std::isprint(static_cast<unsigned char>(ch)) &&
                          ch != '"' && ch != '\\';
        if (safe) model += ch;
      }
      while (!model.empty() && model.front() == ' ') model.erase(0, 1);
      break;
    }
    std::fclose(f);
    return model;
  }

  std::string path_;
  std::vector<std::string> rows_;
};

/// Nearest-rank quantile, q in [0, 1]; the rule behind every repeated
/// row's median and p10/p90.
inline double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(q * (samples.size() - 1) + 0.5)];
}

struct Scale {
  size_t objects_per_block = 8;
  std::vector<size_t> window_blocks = {4, 8, 16, 24, 32};  // x-axis sweeps
  size_t queries_per_point = 2;
  std::vector<size_t> sub_query_counts = {2, 4, 6, 8, 10};
  size_t setup_blocks = 8;  // blocks measured in Table 1 / Fig 16
};

inline Scale GetScale() {
  Scale s;
  const char* env = std::getenv("VCHAIN_BENCH_SCALE");
  if (env != nullptr && std::string(env) == "full") {
    s.objects_per_block = 16;
    s.window_blocks = {16, 32, 64, 96, 128};
    s.queries_per_point = 5;
    s.sub_query_counts = {20, 40, 60, 80, 100};
    s.setup_blocks = 16;
  }
  return s;
}

/// The six evaluated schemes.
struct Scheme {
  IndexMode mode;
  bool acc2;
  std::string Name() const {
    return std::string(core::IndexModeName(mode)) + (acc2 ? "-acc2" : "-acc1");
  }
};

inline std::vector<Scheme> AllSchemes() {
  return {{IndexMode::kNil, false},   {IndexMode::kNil, true},
          {IndexMode::kIntra, false}, {IndexMode::kIntra, true},
          {IndexMode::kBoth, false},  {IndexMode::kBoth, true}};
}

inline std::shared_ptr<KeyOracle> SharedOracle() {
  static std::shared_ptr<KeyOracle> kOracle =
      KeyOracle::Create(/*seed=*/20190630, AccParams{16});
  return kOracle;
}

inline ChainConfig ConfigFor(const DatasetProfile& profile, IndexMode mode,
                             uint32_t skiplist_size = 3) {
  ChainConfig config;
  config.mode = mode;
  config.schema = profile.schema;
  config.skiplist_size = skiplist_size;
  return config;
}

/// Build a chain of `blocks` blocks from the dataset generator. `mining`
/// selects honest public-key digest computation (Table 1 / Fig 16 measure
/// this) vs the byte-identical trusted fast path (query benches).
template <typename Engine>
std::unique_ptr<ChainBuilder<Engine>> BuildChain(const DatasetProfile& profile,
                                                 const ChainConfig& config,
                                                 size_t blocks, uint64_t seed,
                                                 ProverMode mode,
                                                 double* build_seconds = nullptr,
                                                 size_t* ads_bytes = nullptr) {
  Engine engine(SharedOracle(), mode);
  auto builder = std::make_unique<ChainBuilder<Engine>>(engine, config);
  DatasetGenerator gen(profile, seed);
  double total_s = 0;
  size_t total_b = 0;
  for (size_t b = 0; b < blocks; ++b) {
    auto objs = gen.NextBlock();
    uint64_t ts = objs.front().timestamp;
    auto stats = builder->AppendBlock(std::move(objs), ts);
    if (!stats.ok()) {
      std::fprintf(stderr, "AppendBlock failed: %s\n",
                   stats.status().ToString().c_str());
      std::abort();
    }
    total_s += stats.value().ads_seconds;
    total_b += stats.value().ads_bytes;
  }
  if (build_seconds != nullptr) *build_seconds = total_s;
  if (ads_bytes != nullptr) *ads_bytes = total_b;
  return builder;
}

struct QueryPoint {
  double sp_seconds = 0;
  double user_seconds = 0;
  double vo_kb = 0;
  size_t results = 0;
};

/// Run `n_queries` time-window queries over the last `window` blocks and
/// average SP time, user time, and VO size.
template <typename Engine>
QueryPoint RunTimeWindowPoint(const ChainBuilder<Engine>& builder,
                              const ChainConfig& config,
                              DatasetGenerator* gen, size_t window,
                              size_t n_queries, double selectivity,
                              size_t clause_size) {
  chain::LightClient light;
  Status st = builder.SyncLightClient(&light);
  if (!st.ok()) std::abort();
  const Engine& engine = builder.engine();
  store::VectorBlockSource<Engine> source(&builder.blocks());
  core::QueryProcessor<Engine> sp(engine, config, &source);
  core::Verifier<Engine> verifier(engine, config, &light);

  size_t total = builder.blocks().size();
  uint64_t t_start = builder.blocks()[total - window].header.timestamp;
  uint64_t t_end = builder.blocks()[total - 1].header.timestamp;

  QueryPoint point;
  for (size_t i = 0; i < n_queries; ++i) {
    Query q = gen->MakeQuery(selectivity, clause_size, t_start, t_end);
    Timer sp_t;
    auto resp = sp.TimeWindowQuery(q);
    point.sp_seconds += sp_t.ElapsedSeconds();
    if (!resp.ok()) std::abort();
    point.vo_kb +=
        static_cast<double>(core::VoByteSize(engine, resp.value().vo)) / 1024;
    point.results += resp.value().objects.size();
    Timer user_t;
    Status v = verifier.VerifyTimeWindow(q, resp.value());
    point.user_seconds += user_t.ElapsedSeconds();
    if (!v.ok()) {
      std::fprintf(stderr, "verification failed: %s\n", v.ToString().c_str());
      std::abort();
    }
  }
  point.sp_seconds /= static_cast<double>(n_queries);
  point.user_seconds /= static_cast<double>(n_queries);
  point.vo_kb /= static_cast<double>(n_queries);
  return point;
}

/// One full figure: the six schemes swept over window sizes for a dataset.
inline void RunTimeWindowFigure(const char* figure, DatasetKind kind) {
  Scale scale = GetScale();
  DatasetProfile profile = workload::ProfileFor(kind, scale.objects_per_block);
  size_t max_window = scale.window_blocks.back();

  std::printf("# %s — time-window query performance (%s)\n", figure,
              workload::DatasetName(kind));
  std::printf("# selectivity=%.0f%%, clause=%zu, %zu objects/block, "
              "%zu queries/point\n",
              profile.default_selectivity * 100, profile.default_clause_size,
              profile.objects_per_block, scale.queries_per_point);
  std::printf("%-12s %8s %12s %12s %10s %8s\n", "scheme", "window",
              "sp_cpu_s", "user_cpu_s", "vo_kb", "results");

  BenchJson json(figure);
  for (const Scheme& scheme : AllSchemes()) {
    auto run = [&](auto engine_tag) {
      using Engine = decltype(engine_tag);
      ChainConfig config = ConfigFor(profile, scheme.mode);
      auto builder = BuildChain<Engine>(profile, config, max_window,
                                        /*seed=*/1234,
                                        ProverMode::kTrustedFast);
      DatasetGenerator qgen(profile, /*seed=*/1234);
      for (size_t window : scale.window_blocks) {
        QueryPoint p = RunTimeWindowPoint(*builder, config, &qgen, window,
                                          scale.queries_per_point,
                                          profile.default_selectivity,
                                          profile.default_clause_size);
        std::printf("%-12s %8zu %12.4f %12.4f %10.2f %8zu\n",
                    scheme.Name().c_str(), window, p.sp_seconds,
                    p.user_seconds, p.vo_kb, p.results);
        json.Add(scheme.Name() + "-sp", window, p.sp_seconds * 1e9,
                 p.sp_seconds > 0 ? 1.0 / p.sp_seconds : 0);
        json.Add(scheme.Name() + "-user", window, p.user_seconds * 1e9,
                 p.user_seconds > 0 ? 1.0 / p.user_seconds : 0);
        std::fflush(stdout);
      }
    };
    if (scheme.acc2) {
      run(Acc2Engine(SharedOracle()));
    } else {
      run(Acc1Engine(SharedOracle()));
    }
  }
}

}  // namespace vchain::bench

#endif  // VCHAIN_BENCH_HARNESS_H_
