// Shared driver for the subscription benchmarks (Figs 12-15 and the
// matcher sweep in bench_sub_match): one session loop serves every variant
// — realtime/lazy, IP-Tree on/off, block-driven or per-query realtime
// matching — so the drivers stay declarative.

#ifndef VCHAIN_BENCH_SUB_HARNESS_H_
#define VCHAIN_BENCH_SUB_HARNESS_H_

#include "harness.h"
#include "sub/sub_serde.h"
#include "sub/sub_verifier.h"

namespace vchain::bench {

struct SubCosts {
  double sp_seconds = 0;    ///< accumulated SP processing time
  double user_seconds = 0;  ///< accumulated verification time
  double vo_kb = 0;         ///< accumulated notification/batch bytes
  std::vector<double> block_sp_seconds;  ///< per-block SP samples
};

struct SubSessionOptions {
  bool lazy = false;         ///< Algorithm 5 (requires aggregation)
  bool use_ip_tree = true;   ///< cross-query proof sharing (§7.1)
  bool verify = false;       ///< measure user-side verification too
  bool measure_vo = true;    ///< serialize outputs for the VO-size metric
  /// Distinct query templates the subscribers draw their keyword interests
  /// from (0 = n_queries / 4). Correlated interests are the workload the
  /// IP-Tree and the clause index both exploit.
  size_t n_templates = 0;
  /// Share *entire* queries from the template pool, not just the popular
  /// keyword clause. Figs 12-15 keep per-subscriber ranges (the paper's
  /// IP-Tree workload); the matcher sweep models topic-style pub/sub where
  /// whole interests repeat across subscribers and grouped dispatch can
  /// build each notification once per group.
  bool full_query_templates = false;
};

/// Engines differ in whether they take a prover mode (the pairing engines
/// do, the mocks don't); benches always want the byte-identical fast path.
template <typename Engine>
Engine MakeBenchEngine() {
  if constexpr (std::is_constructible_v<Engine, std::shared_ptr<KeyOracle>,
                                        ProverMode>) {
    return Engine(SharedOracle(), ProverMode::kTrustedFast);
  } else {
    return Engine(SharedOracle());
  }
}

/// Realtime matching as the SP runs it: the block drives the clause index.
/// `Prepare` runs once after registration, outside the timed loop.
struct MatchByBlock {
  template <typename Engine>
  void Prepare(sub::SubscriptionManager<Engine>&) const {}

  template <typename Engine>
  std::vector<sub::SubNotification<Engine>> operator()(
      sub::SubscriptionManager<Engine>& mgr,
      const core::Block<Engine>& block) const {
    return mgr.ProcessBlock(block);
  }
};

/// Run a subscription session of `period_blocks` blocks with `n_queries`
/// registered queries under `so`; `match` is the realtime matching step.
template <typename Engine, typename Match = MatchByBlock>
SubCosts RunSubscriptionSession(const DatasetProfile& profile,
                                const ChainConfig& config,
                                size_t period_blocks, size_t n_queries,
                                const SubSessionOptions& so,
                                Match match = {}) {
  Engine engine = MakeBenchEngine<Engine>();
  ChainBuilder<Engine> builder(engine, config);
  DatasetGenerator gen(profile, /*seed=*/555);

  typename sub::SubscriptionManager<Engine>::Options opts;
  opts.lazy = so.lazy;
  opts.use_ip_tree = so.use_ip_tree;
  sub::SubscriptionManager<Engine> mgr(engine, config, opts);

  struct Reg {
    Query q;
    uint32_t id;
    uint64_t owed = 0;
  };
  // Registrations are kept only when user-side verification is measured —
  // the million-subscriber sweep doesn't need a second copy of every query.
  std::vector<Reg> regs;
  if (so.verify) regs.reserve(n_queries);
  uint64_t t0 = gen.TimestampOfBlock(0);
  uint64_t t1 = gen.TimestampOfBlock(period_blocks);
  // Subscription workloads are rare-matching (most registered interests stay
  // silent on most blocks): tighten range selectivity and keyword breadth
  // relative to the time-window defaults so that silent runs — the substrate
  // of lazy authentication — actually occur. Interests are also correlated:
  // many subscribers watch the same popular keywords (with their own ranges),
  // which is what the IP-Tree's cross-query proof sharing and the clause
  // index's interning both exploit (§7.1).
  double sel = profile.default_selectivity / 5;
  size_t clause = std::max<size_t>(1, profile.default_clause_size / 3);
  size_t n_templates =
      so.n_templates != 0 ? so.n_templates : std::max<size_t>(1, n_queries / 4);
  std::vector<std::vector<std::string>> popular;
  std::vector<Query> pool;
  for (size_t i = 0; i < n_queries; ++i) {
    Reg r;
    if (so.full_query_templates) {
      if (pool.size() < n_templates) pool.push_back(gen.MakeQuery(sel, clause, t0, t1));
      r.q = pool[i % pool.size()];
    } else {
      r.q = gen.MakeQuery(sel, clause, t0, t1);
      if (popular.size() < n_templates) {
        popular.push_back(r.q.keyword_cnf.back());
      } else {
        r.q.keyword_cnf.back() = popular[i % n_templates];
      }
    }
    r.id = mgr.TrySubscribe(r.q).TakeValue();
    if (so.verify) regs.push_back(std::move(r));
  }
  match.Prepare(mgr);

  chain::LightClient light;
  sub::SubVerifier<Engine> verifier(engine, config, &light);
  SubCosts costs;

  auto handle_batch = [&](const sub::LazyBatch<Engine>& batch) {
    if (so.measure_vo) {
      costs.vo_kb +=
          static_cast<double>(sub::LazyBatchByteSize(engine, batch)) / 1024;
    }
    if (!so.verify) return;
    Reg* reg = nullptr;
    for (Reg& r : regs) {
      if (r.id == batch.query_id) reg = &r;
    }
    Timer t;
    uint64_t next = 0;
    Status st = verifier.VerifyLazyBatch(reg->q, batch, reg->owed, &next);
    costs.user_seconds += t.ElapsedSeconds();
    if (!st.ok()) {
      std::fprintf(stderr, "lazy verify failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    reg->owed = next;
  };

  for (size_t b = 0; b < period_blocks; ++b) {
    auto objs = gen.NextBlock();
    uint64_t ts = objs.front().timestamp;
    auto st = builder.AppendBlock(std::move(objs), ts);
    if (!st.ok()) std::abort();
    if (so.verify) {
      Status sync = builder.SyncLightClient(&light);
      if (!sync.ok()) std::abort();
    }
    const auto& block = builder.blocks().back();

    if (so.lazy) {
      if constexpr (Engine::kSupportsAggregation) {
        Timer sp_t;
        auto batches = mgr.ProcessBlockLazy(block);
        double s = sp_t.ElapsedSeconds();
        costs.sp_seconds += s;
        costs.block_sp_seconds.push_back(s);
        for (const auto& batch : batches) handle_batch(batch);
      }
    } else {
      Timer sp_t;
      auto notifs = match(mgr, block);
      double s = sp_t.ElapsedSeconds();
      costs.sp_seconds += s;
      costs.block_sp_seconds.push_back(s);
      if (so.measure_vo || so.verify) {
        for (const auto& notif : notifs) {
          if (so.measure_vo) {
            costs.vo_kb += static_cast<double>(
                               sub::SubNotificationByteSize(engine, notif)) /
                           1024;
          }
          if (so.verify) {
            const Query& q = regs[notif.query_id].q;
            Timer t;
            Status v = verifier.VerifyNotification(q, notif);
            costs.user_seconds += t.ElapsedSeconds();
            if (!v.ok()) {
              std::fprintf(stderr, "notif verify failed: %s\n",
                           v.ToString().c_str());
              std::abort();
            }
            regs[notif.query_id].owed = notif.height + 1;
          }
        }
      }
    }
  }
  if (so.lazy) {
    if constexpr (Engine::kSupportsAggregation) {
      Timer sp_t;
      auto batches = mgr.FlushAll();
      costs.sp_seconds += sp_t.ElapsedSeconds();
      for (const auto& batch : batches) handle_batch(batch);
    }
  }
  return costs;
}

/// Figs 13-15: period sweep with realtime-acc1, realtime-acc2, lazy-acc2.
inline void RunSubscriptionFigure(const char* figure, DatasetKind kind) {
  Scale scale = GetScale();
  DatasetProfile profile = workload::ProfileFor(kind, scale.objects_per_block);
  size_t n_queries = 3;
  std::printf("# %s — subscription query performance (%s), %zu queries\n",
              figure, workload::DatasetName(kind), n_queries);
  std::printf("%-15s %8s %12s %12s %10s\n", "scheme", "period", "sp_cpu_s",
              "user_cpu_s", "vo_kb");
  for (size_t period : scale.window_blocks) {
    ChainConfig config = ConfigFor(profile, IndexMode::kBoth);
    SubSessionOptions so;
    so.verify = true;
    SubCosts rt1 = RunSubscriptionSession<Acc1Engine>(profile, config, period,
                                                      n_queries, so);
    std::printf("%-15s %8zu %12.4f %12.4f %10.2f\n", "realtime-acc1", period,
                rt1.sp_seconds, rt1.user_seconds, rt1.vo_kb);
    SubCosts rt2 = RunSubscriptionSession<Acc2Engine>(profile, config, period,
                                                      n_queries, so);
    std::printf("%-15s %8zu %12.4f %12.4f %10.2f\n", "realtime-acc2", period,
                rt2.sp_seconds, rt2.user_seconds, rt2.vo_kb);
    so.lazy = true;
    SubCosts lz2 = RunSubscriptionSession<Acc2Engine>(profile, config, period,
                                                      n_queries, so);
    std::printf("%-15s %8zu %12.4f %12.4f %10.2f\n", "lazy-acc2", period,
                lz2.sp_seconds, lz2.user_seconds, lz2.vo_kb);
    std::fflush(stdout);
  }
}

}  // namespace vchain::bench

#endif  // VCHAIN_BENCH_SUB_HARNESS_H_
