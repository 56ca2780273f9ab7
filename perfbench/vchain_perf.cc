// vchain_perf — the end-to-end benchmark: three closed-loop workloads
// driven only through public calls (Service, SpServer, SpClient), every
// answer verified and checked against a plaintext scan of the chain.
//
//   vchain_perf --workload query-hot|query-cold|append-subscribe
//               --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints progress and the work fingerprint on stderr/stdout and, as the
// last stdout line, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 turns on server
// tracing, records the benchmark's spans (written to DIR/spans.json) and
// reports the per-layer metrics instead. perfbench/README.md documents
// every metric and why each workload exists.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "perf_support.h"
#include "workload/datasets.h"

namespace {

using namespace vchain;
using perf::NowNs;
using perf::NsToMs;
using perf::Samples;

// --- workload shapes --------------------------------------------------------

/// The chain is one fixed synthetic dataset per workload, as the paper's
/// datasets are fixed; the workload seed drives what is asked of it.
constexpr uint64_t kDataSeed = 20190630;
/// How many times setup runs per (untraced) run; setup_s is the median.
constexpr int kSetupReps = 3;
/// Timed-phase answers (query workloads) and steps (append-subscribe) folded
/// into the work fingerprint. The timed loop always completes at least this
/// many, so the fingerprint covers the same work on every run of a seed.
constexpr size_t kFingerprintOps = 12;
constexpr size_t kFingerprintSteps = 3;
/// HTTP worker threads of the in-process SpServer.
constexpr size_t kHttpWorkers = 2;

struct Shape {
  workload::DatasetKind dataset;
  size_t objects_per_block;
  size_t chain_blocks;
  /// Durable store (else the chain stays in memory) and its block cache.
  bool durable;
  size_t block_cache_blocks;
  size_t clients;
  // Query workloads: window length range (blocks; cold windows use
  // window_min) and, for the hot set, how many queries and how far back
  // from the tip their windows may start.
  size_t window_min;
  size_t window_max;
  size_t hot_queries;
  size_t hot_recent_blocks;
  // append-subscribe: subscribers and the pool of distinct interests.
  size_t subscribers;
  size_t interests;
};

Shape ShapeFor(const std::string& workload) {
  Shape s{};
  if (workload == "query-hot") {
    s.dataset = workload::DatasetKind::k4SQ;
    s.objects_per_block = 4;
    s.chain_blocks = 64;
    s.durable = false;  // chain in memory: no block cache, no store reads
    s.clients = 2;
    s.window_min = 4;
    s.window_max = 8;
    s.hot_queries = 16;
    s.hot_recent_blocks = 24;
  } else if (workload == "query-cold") {
    s.dataset = workload::DatasetKind::kETH;
    s.objects_per_block = 4;
    s.chain_blocks = 512;
    s.durable = true;
    s.block_cache_blocks = 32;  // store is 16x the block cache
    s.clients = 1;
    s.window_min = 2;  // cold windows are exactly window_min blocks
  } else {
    s.dataset = workload::DatasetKind::k4SQ;
    s.objects_per_block = 4;
    s.chain_blocks = 32;
    s.durable = true;
    // The workload reads no block back, so a cache that is already full at
    // the end of setup keeps the timed blocks from adding to peak RSS.
    s.block_cache_blocks = 32;
    // Small enough that a step takes ~0.25 s: a 30-s run then commits over
    // 100 blocks, and each block's commit is shared by all of its answers,
    // so answer_ms_p90 keeps at least ten blocks beyond it.
    s.subscribers = 8;
    s.interests = 4;
  }
  return s;
}

/// The daemon's configuration (vchain_spd): acc2, both indexes, skip list
/// of 2, honest prover, canary off — with the dataset's schema.
ServiceOptions DaemonOptions(const workload::DatasetProfile& profile,
                             const Shape& shape, const std::string& store_dir,
                             bool tracing) {
  ServiceOptions opts;
  opts.engine = EngineKind::kAcc2;
  opts.config.mode = core::IndexMode::kBoth;
  opts.config.schema = profile.schema;
  opts.config.skiplist_size = 2;
  if (shape.durable) opts.config.block_cache_blocks = shape.block_cache_blocks;
  opts.oracle_seed = 7;
  opts.acc_params.universe_bits = 16;
  opts.prover_mode = accum::ProverMode::kHonest;
  opts.canary_sample_every = 0;
  opts.tracing = tracing;
  opts.store_dir = store_dir;
  return opts;
}

// --- run context ------------------------------------------------------------

struct Run {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;

  perf::SampleBook book;
  perf::SpanLog spans;
  perf::Report report;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> extra_results{0};
  double timed_seconds = 0;
  uint64_t timed_answers = 0;

  void Fail(const char* what, const Status& st) {
    failed.fetch_add(1);
    std::fprintf(stderr, "FAILED %s: %s\n", what, st.ToString().c_str());
  }
  void Fail(const char* what) {
    failed.fetch_add(1);
    std::fprintf(stderr, "FAILED %s\n", what);
  }
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The plaintext oracle over the generated blocks: ids of every object the
/// query selects (window included).
std::set<uint64_t> ExpectedIds(const std::vector<std::vector<chain::Object>>& chain,
                               const core::Query& q,
                               const chain::NumericSchema& schema) {
  std::set<uint64_t> ids;
  for (const auto& block : chain) {
    if (block.empty()) continue;
    uint64_t ts = block.front().timestamp;
    if (ts < q.time_start || ts > q.time_end) continue;
    for (const chain::Object& o : block) {
      if (core::LocalMatch(o, q, schema)) ids.insert(o.id);
    }
  }
  return ids;
}

/// True when `objects` holds every expected id. acc2's element folding may
/// add matches but must never drop one; additions are counted as extras.
bool CoversExpected(const std::vector<chain::Object>& objects,
                    const std::set<uint64_t>& expected, uint64_t* extras) {
  size_t found = 0;
  for (const chain::Object& o : objects) {
    if (expected.count(o.id)) {
      ++found;
    } else {
      ++*extras;
    }
  }
  return found == expected.size();
}

/// Mine `blocks` generated blocks, one commit (Sync) per block, recording
/// the Append and Sync walls. Sync is a no-op for an in-memory chain.
Status BuildChain(Service* svc, workload::DatasetGenerator* gen, size_t blocks,
                  std::vector<std::vector<chain::Object>>* chain,
                  perf::SampleBook* book) {
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<chain::Object> objs = gen->NextBlock();
    uint64_t ts = objs.front().timestamp;
    chain->push_back(objs);
    uint64_t t0 = NowNs();
    VCHAIN_RETURN_IF_ERROR(svc->Append(std::move(objs), ts));
    uint64_t t1 = NowNs();
    VCHAIN_RETURN_IF_ERROR(svc->Sync());
    uint64_t t2 = NowNs();
    book->Add("setup.append_ms", NsToMs(t1 - t0));
    book->Add("setup.sync_ms", NsToMs(t2 - t1));
  }
  return Status::OK();
}

/// Seeded Fisher-Yates shuffle.
void Shuffle(std::vector<size_t>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

crypto::Hash32 TipHash(const chain::LightClient& light) {
  return light.BlockHashAt(light.Height() - 1);
}

/// The end-to-end metrics every workload reports from its untraced run. An
/// "answer" is a verified query result or a verified notification.
void ReportEndToEnd(Run* run, const Samples& setup_s) {
  Samples answers = run->book.Get("answer_ms");
  run->report.Set("setup_s", setup_s.Median(), "s");
  run->report.Set("answer_ms_p50", answers.Median(), "ms");
  // p90, not p99: on a shared host p99 follows contention bursts and moved
  // by a third between runs of identical work; every workload leaves well
  // over ten answers above p90.
  run->report.Set("answer_ms_p90", answers.Percentile(90), "ms");
  run->report.Set("answers_per_s",
                  run->timed_seconds > 0
                      ? static_cast<double>(answers.size()) / run->timed_seconds
                      : 0,
                  "1/s");
  // A mean, as the paper reports user CPU time: per-answer verify times
  // cluster by how many pairing checks an answer needs, and a median that
  // sits between two clusters jumps when their shares barely change.
  run->report.Set("verify_ms_mean", run->book.Get("verify_ms").Mean(), "ms");
  run->report.Set("vo_kib_mean", run->book.Get("vo_kib").Mean(), "KiB");
}

// --- query workloads (query-hot, query-cold) --------------------------------

/// One setup of a query workload: an SP behind an in-process SpServer, light
/// clients connected over the wire and header-synced.
/// Members are declared so destruction runs clients -> server -> service.
struct QueryStack {
  std::unique_ptr<Service> svc;
  std::unique_ptr<net::SpServer> server;
  std::vector<std::unique_ptr<net::SpClient>> clients;
  std::vector<chain::LightClient> lights;
  std::vector<std::vector<chain::Object>> chain;
  std::string store_dir;

  ~QueryStack() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    svc.reset();
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  }
};

struct Answer {
  bool ok = false;
  double answer_ms = 0;
  double query_ms = 0;
  double verify_ms = 0;
  Bytes response;
  std::vector<chain::Object> objects;
  size_t vo_bytes = 0;
  std::string server_trace;
};

/// SpClient::Query issued -> SpClient::Verify OK, with the benchmark's
/// spans around both calls when tracing.
Answer AskAndVerify(Run* run, net::SpClient* client,
                    const chain::LightClient& light, const core::Query& q,
                    uint64_t request, bool want_trace) {
  Answer a;
  uint32_t root = run->spans.Begin("answer", request);
  uint64_t t0 = NowNs();
  uint32_t s_query = run->spans.Begin("client.query", request, root);
  auto result = client->Query(q, want_trace ? &a.server_trace : nullptr);
  run->spans.End(s_query);
  uint64_t t1 = NowNs();
  if (!result.ok()) {
    run->spans.End(root);
    run->Fail("query", result.status());
    return a;
  }
  uint32_t s_verify = run->spans.Begin("client.verify", request, root);
  Status v = client->Verify(q, result.value(), light);
  run->spans.End(s_verify);
  uint64_t t2 = NowNs();
  run->spans.End(root);
  if (!v.ok()) {
    run->Fail("verify", v);
    return a;
  }
  a.ok = true;
  a.query_ms = NsToMs(t1 - t0);
  a.verify_ms = NsToMs(t2 - t1);
  a.answer_ms = NsToMs(t2 - t0);
  a.vo_bytes = result.value().vo_bytes;
  a.objects = std::move(result.value().objects);
  a.response = std::move(result.value().response_bytes);
  return a;
}

/// Record one verified answer's samples (end-to-end and, when the server
/// trace came back, per-stage).
void RecordAnswer(const Answer& a, std::map<std::string, Samples>* local) {
  (*local)["answer_ms"].Add(a.answer_ms);
  (*local)["verify_ms"].Add(a.verify_ms);
  (*local)["vo_kib"].Add(static_cast<double>(a.vo_bytes) / 1024.0);
  (*local)["response_kib"].Add(static_cast<double>(a.response.size()) / 1024.0);
  if (a.server_trace.empty()) {
    (*local)["untraced.answer_ms"].Add(a.answer_ms);
    return;
  }
  const std::string& t = a.server_trace;
  auto ms = [&](const char* key) { return NsToMs(perf::JsonU64(t, key)); };
  double total = ms("total_ns");
  double stages = ms("setup_ns") + ms("window_lookup_ns") +
                  ms("match_walk_ns") + ms("aggregate_ns") + ms("prove_ns") +
                  ms("serialize_ns");
  double overhead = a.query_ms - total;
  // acc2 proves its aggregated disjointness proofs inline, inside the
  // aggregate stage (only the msm sub-stage is split out), so proof time is
  // the deferred prove stage plus the aggregate stage's non-MSM part.
  double prove = ms("prove_ns") + (ms("aggregate_ns") - ms("msm_ns"));
  (*local)["traced.answer_ms"].Add(a.answer_ms);
  (*local)["net.overhead_ms"].Add(overhead);
  (*local)["api.query_ms"].Add(total);
  (*local)["api.serialize_ms"].Add(ms("serialize_ns"));
  (*local)["core.match_walk_ms"].Add(ms("match_walk_ns"));
  (*local)["core.aggregate_ms"].Add(ms("aggregate_ns"));
  (*local)["core.prove_ms"].Add(prove);
  (*local)["accum.msm_ms"].Add(ms("msm_ns"));
  (*local)["core.blocks_walked"].Add(perf::JsonU64(t, "blocks_walked"));
  (*local)["core.skips_taken"].Add(perf::JsonU64(t, "skips_taken"));
  (*local)["core.nodes_visited"].Add(perf::JsonU64(t, "nodes_visited"));
  (*local)["core.results"].Add(perf::JsonU64(t, "results_matched"));
  (*local)["core.proofs_computed"].Add(perf::JsonU64(t, "proofs_computed"));
  // Parts vs whole: what net overhead + server stages + client verify
  // leave unexplained of this answer.
  double residual = a.answer_ms - (overhead + stages + a.verify_ms);
  (*local)["bench.residual_share"].Add(residual / a.answer_ms);
}

/// A query window of `len` blocks starting at height `start`.
core::Query WindowQuery(workload::DatasetGenerator* gen, size_t start,
                        size_t len) {
  return gen->MakeDefaultQuery(gen->TimestampOfBlock(start),
                               gen->TimestampOfBlock(start + len - 1));
}

/// Build one query stack: store, chain, server, clients, header sync.
Status OpenQueryStack(Run* run, const Shape& shape,
                      const workload::DatasetProfile& profile, int rep,
                      QueryStack* stack,
                      std::unique_ptr<workload::DatasetGenerator>* gen) {
  if (shape.durable) {
    stack->store_dir = run->work_dir + "/store-" + std::to_string(rep);
    std::filesystem::remove_all(stack->store_dir);
  }
  ServiceOptions opts =
      DaemonOptions(profile, shape, stack->store_dir, run->trace);
  auto svc = Service::Open(opts);
  if (!svc.ok()) return svc.status();
  stack->svc = svc.TakeValue();
  *gen = std::make_unique<workload::DatasetGenerator>(profile, kDataSeed);
  VCHAIN_RETURN_IF_ERROR(BuildChain(stack->svc.get(), gen->get(),
                                    shape.chain_blocks, &stack->chain,
                                    &run->book));
  net::SpServer::Options sopts;
  sopts.http.num_threads = kHttpWorkers;
  auto server = net::SpServer::Start(stack->svc.get(), sopts);
  if (!server.ok()) return server.status();
  stack->server = server.TakeValue();
  for (size_t c = 0; c < shape.clients; ++c) {
    net::SpClient::Options copts;
    copts.port = stack->server->port();
    copts.verify = DaemonOptions(profile, shape, "", false);
    auto client = net::SpClient::Connect(copts);
    if (!client.ok()) return client.status();
    stack->clients.push_back(client.TakeValue());
    stack->lights.push_back(stack->clients.back()->NewLightClient());
    VCHAIN_RETURN_IF_ERROR(
        stack->clients.back()->SyncHeaders(&stack->lights.back()));
  }
  return Status::OK();
}

struct Verdict {
  bool ok = true;
  std::string fingerprint;
};

/// The cache deltas of the timed phase, as per-layer metrics.
void ReportCacheDeltas(Run* run, const ServiceStats& before,
                       const ServiceStats& after, uint64_t answers) {
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  uint64_t ph = after.proof_cache.hits - before.proof_cache.hits;
  uint64_t pm = after.proof_cache.misses - before.proof_cache.misses;
  uint64_t bh = after.block_cache.hits - before.block_cache.hits;
  uint64_t bm = after.block_cache.misses - before.block_cache.misses;
  run->report.Set("api.proof_cache_hit_ratio", ratio(ph, pm), "ratio");
  run->report.Set("api.block_cache_hit_ratio", ratio(bh, bm), "ratio");
  run->report.Set("store.block_misses_per_query",
                  answers == 0 ? 0.0
                               : static_cast<double>(bm) /
                                     static_cast<double>(answers),
                  "count");
}

Verdict RunQueryWorkload(Run* run) {
  const Shape shape = ShapeFor(run->workload);
  const bool hot = run->workload == "query-hot";
  const auto profile =
      workload::ProfileFor(shape.dataset, shape.objects_per_block);
  Verdict verdict;
  perf::Fingerprint fp;
  std::string setup_fp;

  std::unique_ptr<QueryStack> stack;
  std::unique_ptr<workload::DatasetGenerator> gen;   // the chain's blocks
  std::unique_ptr<workload::DatasetGenerator> qgen;  // the predicates
  std::vector<core::Query> hot_set;
  std::vector<Bytes> hot_bytes;
  std::vector<std::set<uint64_t>> hot_expected;
  Samples setup_s;
  const int reps = run->trace ? 1 : kSetupReps;

  for (int rep = 0; rep < reps; ++rep) {
    stack.reset();  // tear down the previous setup before timing a new one
    stack = std::make_unique<QueryStack>();
    uint64_t t0 = NowNs();
    Status st = OpenQueryStack(run, shape, profile, rep, stack.get(), &gen);
    if (!st.ok()) {
      run->Fail("setup", st);
      verdict.ok = false;
      return verdict;
    }
    perf::Fingerprint rep_fp;
    rep_fp.AddHash(TipHash(stack->lights[0]));
    // Predicates are the dataset generator's own stream (ranges anchored on
    // the data's clusters, Zipf keywords), the same sequence for every seed:
    // the hot set is part of the workload, and each cold predicate is fresh
    // within a run while the seed places it on its window.
    qgen = std::make_unique<workload::DatasetGenerator>(profile, kDataSeed);
    Rng pos_rng(kDataSeed);
    hot_set.clear();
    hot_bytes.clear();
    hot_expected.clear();
    if (hot) {
      // The hot set: queries over recent multi-block windows.
      for (size_t i = 0; i < shape.hot_queries; ++i) {
        size_t len = pos_rng.Range(shape.window_min, shape.window_max);
        size_t last_start = shape.chain_blocks - len;
        size_t start =
            last_start - pos_rng.Below(shape.hot_recent_blocks - len + 1);
        hot_set.push_back(WindowQuery(qgen.get(), start, len));
        hot_expected.push_back(
            ExpectedIds(stack->chain, hot_set.back(), profile.schema));
      }
      // Warm-up: compute every proof once (in parallel on the SP's pool),
      // then have each client verify each answer once.
      auto batch = stack->clients[0]->QueryBatch(hot_set);
      Status batch_st = batch.status();
      for (size_t i = 0; batch_st.ok() && i < hot_set.size(); ++i) {
        batch_st = batch.value()[i].status();
      }
      if (!batch_st.ok()) {
        run->Fail("warm-up batch", batch_st);
        verdict.ok = false;
        return verdict;
      }
      for (size_t c = 0; c < stack->clients.size(); ++c) {
        for (size_t i = 0; i < hot_set.size(); ++i) {
          Answer a = AskAndVerify(run, stack->clients[c].get(),
                                  stack->lights[c], hot_set[i], 0, false);
          uint64_t extras = 0;
          const Bytes& expected_bytes =
              c == 0 ? batch.value()[i].value().response_bytes : hot_bytes[i];
          if (!a.ok || !CoversExpected(a.objects, hot_expected[i], &extras) ||
              a.response != expected_bytes) {
            std::fprintf(stderr, "FAILED warm-up answer %zu\n", i);
            verdict.ok = false;
            return verdict;
          }
          if (c == 0) {
            hot_bytes.push_back(a.response);
            rep_fp.AddBytes(a.response);
          }
        }
      }
    } else {
      // Warm the code paths and connections with two queries over the
      // newest window; the timed queries draw the next predicates.
      for (int i = 0; i < 2; ++i) {
        core::Query q = WindowQuery(qgen.get(),
                                    shape.chain_blocks - shape.window_min,
                                    shape.window_min);
        Answer a = AskAndVerify(run, stack->clients[0].get(),
                                stack->lights[0], q, 0, false);
        uint64_t extras = 0;
        if (!a.ok ||
            !CoversExpected(a.objects,
                            ExpectedIds(stack->chain, q, profile.schema),
                            &extras)) {
          std::fprintf(stderr, "FAILED warm-up answer %d\n", i);
          verdict.ok = false;
          return verdict;
        }
        rep_fp.AddBytes(a.response);
      }
    }
    ServiceStats warm_stats = stack->svc->Stats();
    rep_fp.AddU64(warm_stats.proof_cache.misses);
    rep_fp.AddU64(warm_stats.block_cache.misses);
    setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    std::string hex = rep_fp.Hex();
    if (rep == 0) {
      setup_fp = hex;
    } else if (hex != setup_fp) {
      std::fprintf(stderr, "FAILED setup %d did different work\n", rep);
      verdict.ok = false;
    }
    std::fprintf(stderr, "setup %d: %.3f s\n", rep,
                 static_cast<double>(NowNs() - t0) * 1e-9);
  }
  fp.AddText(setup_fp);
  const uint64_t store_bytes = shape.durable ? DirBytes(stack->store_dir) : 0;

  // --- timed phase: closed loops, one per client ---------------------------
  ServiceStats before = stack->svc->Stats();
  ServiceStats prefix_stats{};
  std::vector<Bytes> prefix_bytes;
  std::mutex prefix_mu;
  std::atomic<uint64_t> request_ids{1};
  std::atomic<uint64_t> last_done_ns{0};
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(run->seconds * 1e9);
  // Cold windows start at every height once, in a seeded order, so no
  // window repeats within a run (one client only).
  std::vector<size_t> cold_starts(
      hot ? 0 : shape.chain_blocks - shape.window_min + 1);
  std::iota(cold_starts.begin(), cold_starts.end(), 0);
  Shuffle(&cold_starts, run->seed ^ 0xC0DEull);

  auto loop = [&](size_t c) {
    std::map<std::string, Samples> local;
    uint64_t extras = 0;
    // Each client cycles the hot set in its own seeded order.
    std::vector<size_t> order(hot_set.size());
    std::iota(order.begin(), order.end(), 0);
    Shuffle(&order, run->seed * 31 + c);
    size_t i = 0;
    size_t done = 0;
    while (NowNs() < deadline_ns || (c == 0 && done < kFingerprintOps)) {
      core::Query q;
      const std::set<uint64_t>* expected = nullptr;
      std::set<uint64_t> cold_expected;
      size_t slot = hot ? order[i % order.size()] : 0;
      if (hot) {
        q = hot_set[slot];
        expected = &hot_expected[slot];
      } else {
        q = WindowQuery(qgen.get(), cold_starts[i % cold_starts.size()],
                        shape.window_min);
        cold_expected = ExpectedIds(stack->chain, q, profile.schema);
        expected = &cold_expected;
      }
      // In the traced run every other answer asks for the server trace, so
      // traced and untraced answers interleave (trace overhead); a hot
      // query flips between the two on successive laps of the cycle.
      size_t lap = hot ? i / order.size() : 0;
      bool want_trace = run->trace && (i + lap) % 2 == 1;
      run->attempted.fetch_add(1);
      Answer a = AskAndVerify(run, stack->clients[c].get(), stack->lights[c],
                              q, request_ids.fetch_add(1), want_trace);
      ++i;
      ++done;
      if (!a.ok) continue;
      if (!CoversExpected(a.objects, *expected, &extras)) {
        run->Fail("answer misses an object the plaintext scan selects");
        continue;
      }
      if (hot && a.response != hot_bytes[slot]) {
        run->Fail("hot answer differs from its warm-up bytes");
        continue;
      }
      RecordAnswer(a, &local);
      uint64_t now = NowNs();
      uint64_t prev = last_done_ns.load();
      while (now > prev && !last_done_ns.compare_exchange_weak(prev, now)) {
      }
      if (c == 0 && done <= kFingerprintOps) {
        std::lock_guard<std::mutex> lock(prefix_mu);
        prefix_bytes.push_back(a.response);
        if (done == kFingerprintOps && !hot) {
          prefix_stats = stack->svc->Stats();
        }
      }
    }
    run->extra_results.fetch_add(extras);
    run->book.Merge(local);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < shape.clients; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (auto& t : threads) t.join();
  ServiceStats after = stack->svc->Stats();

  Samples answers = run->book.Get("answer_ms");
  run->timed_answers = answers.size();
  run->timed_seconds =
      static_cast<double>(last_done_ns.load() - start_ns) * 1e-9;

  for (const Bytes& b : prefix_bytes) fp.AddBytes(b);
  if (hot) {
    // Every hot answer was compared with its warm-up bytes above; the
    // timed phase must neither prove nor read a block from the store.
    fp.AddU64(after.proof_cache.misses - before.proof_cache.misses);
    fp.AddU64(after.block_cache.misses - before.block_cache.misses);
  } else {
    fp.AddU64(prefix_stats.proof_cache.misses);
    fp.AddU64(prefix_stats.block_cache.misses);
  }
  verdict.fingerprint = fp.Hex();

  if (!run->trace) {
    ReportEndToEnd(run, setup_s);
    return verdict;
  }

  // --- per-layer metrics from the traced run -------------------------------
  auto p50 = [&](const char* name) { return run->book.Get(name).Median(); };
  auto mean = [&](const char* name) { return run->book.Get(name).Mean(); };
  run->report.Set("net.overhead_ms_p50", p50("net.overhead_ms"), "ms");
  run->report.Set("net.response_kib_mean", mean("response_kib"), "KiB");
  run->report.Set("api.query_ms_p50", p50("api.query_ms"), "ms");
  run->report.Set("api.serialize_ms_p50", p50("api.serialize_ms"), "ms");
  run->report.Set("core.match_walk_ms_p50", p50("core.match_walk_ms"), "ms");
  run->report.Set("core.aggregate_ms_p50", p50("core.aggregate_ms"), "ms");
  run->report.Set("core.prove_ms_p50", p50("core.prove_ms"), "ms");
  run->report.Set("core.blocks_walked_mean", mean("core.blocks_walked"),
                  "count");
  run->report.Set("core.skips_taken_mean", mean("core.skips_taken"), "count");
  run->report.Set("core.nodes_visited_mean", mean("core.nodes_visited"),
                  "count");
  run->report.Set("core.results_mean", mean("core.results"), "count");
  run->report.Set("core.proofs_computed_mean", mean("core.proofs_computed"),
                  "count");
  run->report.Set("accum.msm_ms_p50", p50("accum.msm_ms"), "ms");
  double proofs = run->book.Get("core.proofs_computed").Sum();
  run->report.Set("accum.ms_per_proof",
                  proofs > 0 ? run->book.Get("core.prove_ms").Sum() / proofs
                             : 0,
                  "ms");
  ReportCacheDeltas(run, before, after, answers.size());
  run->report.Set("core.append_ms_p50", p50("setup.append_ms"), "ms");
  run->report.Set("store.sync_ms_p50", p50("setup.sync_ms"), "ms");
  run->report.Set("store.kib_per_block",
                  static_cast<double>(store_bytes) / 1024.0 /
                      static_cast<double>(shape.chain_blocks),
                  "KiB");
  double traced = p50("traced.answer_ms");
  double untraced = p50("untraced.answer_ms");
  double residual_pct = 100.0 * p50("bench.residual_share");
  run->report.Set("bench.stage_residual_pct", residual_pct, "%");
  run->report.Set("bench.trace_overhead_pct",
                  untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0,
                  "%");
  if (std::abs(residual_pct) > 10.0) {
    std::fprintf(stderr,
                 "FAILED reconciliation: stages leave %.2f%% of the answer "
                 "unexplained (bound 10%%)\n",
                 residual_pct);
    verdict.ok = false;
  }
  return verdict;
}

// --- append-subscribe -------------------------------------------------------

struct Subscriber {
  uint32_t id = 0;
  uint64_t cursor = 0;
  core::Query query;
  core::Query any_time;  ///< the query with its window opened (plaintext)
  chain::LightClient light;
};

/// One setup of append-subscribe. Members are declared so destruction runs
/// verifier -> service, then the store directory is removed.
struct SubStack {
  std::unique_ptr<Service> svc;
  std::unique_ptr<Service> verifier;  ///< chain-less user-side verifier
  std::vector<Subscriber> subs;
  std::vector<std::vector<chain::Object>> chain;
  std::string store_dir;

  ~SubStack() {
    verifier.reset();
    svc.reset();
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  }
};

struct StepResult {
  bool ok = true;
  double append_ms = 0;
  double sync_ms = 0;
  std::vector<Bytes> notifications;
};

/// One timed step: Append one block, Sync it, then every subscriber syncs
/// its light client, drains its events and verifies them. A subscriber's
/// notify time is append start -> its own drain -> its own verify OK.
StepResult AppendStep(Run* run, SubStack* stack,
                      workload::DatasetGenerator* gen,
                      const chain::NumericSchema& schema, uint64_t request,
                      std::map<std::string, Samples>* local,
                      uint64_t* extras) {
  StepResult r;
  std::vector<chain::Object> objs = gen->NextBlock();
  uint64_t ts = objs.front().timestamp;
  stack->chain.push_back(objs);
  const std::vector<chain::Object>& block = stack->chain.back();
  uint32_t root = run->spans.Begin("step", request);
  uint64_t t0 = NowNs();
  uint32_t s_append = run->spans.Begin("service.append", request, root);
  Status st = stack->svc->Append(std::move(objs), ts);
  run->spans.End(s_append);
  uint64_t t1 = NowNs();
  uint32_t s_sync = run->spans.Begin("service.sync", request, root);
  if (st.ok()) st = stack->svc->Sync();
  run->spans.End(s_sync);
  uint64_t t2 = NowNs();
  if (!st.ok()) {
    run->spans.End(root);
    run->Fail("append", st);
    r.ok = false;
    return r;
  }
  r.append_ms = NsToMs(t1 - t0);
  r.sync_ms = NsToMs(t2 - t1);
  const double commit_ms = NsToMs(t2 - t0);
  size_t events = 0;
  for (Subscriber& sub : stack->subs) {
    run->attempted.fetch_add(1);
    uint64_t a0 = NowNs();
    uint32_t s_light = run->spans.Begin("chain.light_sync", request, root);
    Status ls = stack->svc->SyncLightClient(&sub.light);
    run->spans.End(s_light);
    uint64_t a1 = NowNs();
    uint32_t s_drain = run->spans.Begin("sub.drain", request, root);
    auto batch = stack->svc->EventsSince(sub.id, sub.cursor);
    std::vector<SubscriptionEvent> decoded;
    if (batch.ok()) {
      for (const SubscriptionEvent& ev : batch.value().events) {
        auto d = stack->verifier->DecodeNotification(ev.notification_bytes);
        if (!d.ok()) {
          batch = d.status();
          break;
        }
        d.value().notification_bytes = ev.notification_bytes;
        decoded.push_back(std::move(d.value()));
      }
    }
    run->spans.End(s_drain);
    uint64_t a2 = NowNs();
    if (!ls.ok() || !batch.ok() || decoded.size() != 1) {
      run->Fail("drain",
                !ls.ok() ? ls
                         : (!batch.ok() ? batch.status()
                                        : Status::Internal("expected one event")));
      continue;
    }
    sub.cursor = batch.value().next_cursor;
    uint32_t s_verify = run->spans.Begin("user.verify_notification", request,
                                         root);
    Status v = stack->verifier->VerifyNotification(sub.query, decoded[0],
                                                   sub.light);
    run->spans.End(s_verify);
    uint64_t a3 = NowNs();
    if (!v.ok()) {
      run->Fail("verify notification", v);
      continue;
    }
    std::set<uint64_t> expected;
    for (const chain::Object& o : block) {
      if (core::LocalMatch(o, sub.any_time, schema)) expected.insert(o.id);
    }
    if (!CoversExpected(decoded[0].objects, expected, extras)) {
      run->Fail("notification misses an object the plaintext scan selects");
      continue;
    }
    ++events;
    (*local)["answer_ms"].Add(commit_ms + NsToMs(a3 - a0));
    (*local)["verify_ms"].Add(NsToMs(a3 - a2));
    (*local)["vo_kib"].Add(
        static_cast<double>(decoded[0].notification_bytes.size()) / 1024.0);
    (*local)["chain.light_sync_ms"].Add(NsToMs(a1 - a0));
    (*local)["sub.drain_ms"].Add(NsToMs(a2 - a1));
    r.notifications.push_back(std::move(decoded[0].notification_bytes));
  }
  run->spans.End(root);
  (*local)["sub.events_per_block"].Add(static_cast<double>(events));
  return r;
}

Verdict RunAppendSubscribe(Run* run) {
  const Shape shape = ShapeFor(run->workload);
  const auto profile =
      workload::ProfileFor(shape.dataset, shape.objects_per_block);
  Verdict verdict;
  perf::Fingerprint fp;
  std::string setup_fp;
  std::unique_ptr<SubStack> stack;
  std::unique_ptr<workload::DatasetGenerator> gen;
  Samples setup_s;
  const int reps = run->trace ? 1 : kSetupReps;
  std::map<std::string, Samples> warm_local;

  for (int rep = 0; rep < reps; ++rep) {
    stack.reset();
    stack = std::make_unique<SubStack>();
    stack->store_dir = run->work_dir + "/store-" + std::to_string(rep);
    std::filesystem::remove_all(stack->store_dir);
    uint64_t t0 = NowNs();
    auto svc = Service::Open(
        DaemonOptions(profile, shape, stack->store_dir, run->trace));
    auto verifier = Service::Open(DaemonOptions(profile, shape, "", false));
    if (!svc.ok() || !verifier.ok()) {
      run->Fail("open", svc.ok() ? verifier.status() : svc.status());
      verdict.ok = false;
      return verdict;
    }
    stack->svc = svc.TakeValue();
    stack->verifier = verifier.TakeValue();
    gen = std::make_unique<workload::DatasetGenerator>(profile, kDataSeed);
    Status st = BuildChain(stack->svc.get(), gen.get(), shape.chain_blocks,
                           &stack->chain, &run->book);
    // A fixed pool of K distinct interests, S/K subscribers each; the seed
    // sets the order in which subscribers register.
    workload::DatasetGenerator qgen(profile, kDataSeed);
    std::vector<core::Query> interests;
    for (size_t k = 0; k < shape.interests; ++k) {
      interests.push_back(qgen.MakeDefaultQuery(0, UINT64_MAX));
    }
    std::vector<size_t> assignment(shape.subscribers);
    for (size_t i = 0; i < assignment.size(); ++i) {
      assignment[i] = i % interests.size();
    }
    Shuffle(&assignment, run->seed);
    for (size_t s = 0; st.ok() && s < shape.subscribers; ++s) {
      Subscriber sub;
      sub.query = interests[assignment[s]];
      sub.any_time = sub.query;
      sub.any_time.time_start = 0;
      sub.any_time.time_end = UINT64_MAX;
      uint64_t a = NowNs();
      auto id = stack->svc->Subscribe(sub.query);
      run->book.Add("sub.subscribe_ms", NsToMs(NowNs() - a));
      if (!id.ok()) {
        st = id.status();
        break;
      }
      sub.id = id.value();
      sub.cursor = stack->svc->NumBlocks();
      st = stack->svc->SyncLightClient(&sub.light);
      stack->subs.push_back(std::move(sub));
    }
    if (!st.ok()) {
      run->Fail("setup", st);
      verdict.ok = false;
      return verdict;
    }
    // Warm-up: two full steps, outside the timed phase.
    perf::Fingerprint rep_fp;
    chain::LightClient tip;
    st = stack->svc->SyncLightClient(&tip);
    if (!st.ok()) {
      run->Fail("setup", st);
      verdict.ok = false;
      return verdict;
    }
    rep_fp.AddHash(TipHash(tip));
    for (int w = 0; w < 2; ++w) {
      uint64_t extras = 0;
      warm_local.clear();
      StepResult r = AppendStep(run, stack.get(), gen.get(), profile.schema,
                                0, &warm_local, &extras);
      if (!r.ok || r.notifications.size() != stack->subs.size()) {
        std::fprintf(stderr, "FAILED warm-up step %d\n", w);
        verdict.ok = false;
        return verdict;
      }
      for (const Bytes& b : r.notifications) rep_fp.AddBytes(b);
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    std::string hex = rep_fp.Hex();
    if (rep == 0) {
      setup_fp = hex;
    } else if (hex != setup_fp) {
      std::fprintf(stderr, "FAILED setup %d did different work\n", rep);
      verdict.ok = false;
    }
    std::fprintf(stderr, "setup %d: %.3f s\n", rep,
                 static_cast<double>(NowNs() - t0) * 1e-9);
  }
  // Warm-up steps ran against the attempted counter; the timed phase
  // counts from zero.
  run->attempted.store(0);
  fp.AddText(setup_fp);

  // --- timed phase -----------------------------------------------------------
  std::map<std::string, Samples> local;
  uint64_t extras = 0;
  size_t steps = 0;
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(run->seconds * 1e9);
  while (NowNs() < deadline_ns || steps < kFingerprintSteps) {
    StepResult r = AppendStep(run, stack.get(), gen.get(), profile.schema,
                              steps + 1, &local, &extras);
    ++steps;
    if (!r.ok) continue;
    local["append_ms"].Add(r.append_ms + r.sync_ms);
    local["core.append_in_step_ms"].Add(r.append_ms);
    local["store.sync_ms"].Add(r.sync_ms);
    if (steps <= kFingerprintSteps) {
      for (const Bytes& b : r.notifications) fp.AddBytes(b);
    }
  }
  run->timed_seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
  run->extra_results.fetch_add(extras);
  run->book.Merge(local);
  verdict.fingerprint = fp.Hex();

  run->timed_answers = run->book.Get("answer_ms").size();
  if (!run->trace) {
    ReportEndToEnd(run, setup_s);
    return verdict;
  }

  auto p50 = [&](const char* name) { return run->book.Get(name).Median(); };
  double core_append = p50("setup.append_ms");
  run->report.Set("core.append_ms_p50", core_append, "ms");
  run->report.Set("sub.append_ms_p50", p50("append_ms"), "ms");
  run->report.Set("store.kib_per_block",
                  static_cast<double>(DirBytes(stack->store_dir)) / 1024.0 /
                      static_cast<double>(stack->svc->NumBlocks()),
                  "KiB");
  run->report.Set("store.sync_ms_p50", p50("store.sync_ms"), "ms");
  run->report.Set("sub.subscribe_ms_p50", p50("sub.subscribe_ms"), "ms");
  run->report.Set("sub.append_extra_ms_p50",
                  p50("core.append_in_step_ms") - core_append, "ms");
  run->report.Set("sub.drain_ms_p50", p50("sub.drain_ms"), "ms");
  run->report.Set("sub.events_per_block",
                  run->book.Get("sub.events_per_block").Mean(), "count");
  run->report.Set("chain.light_sync_ms_p50", p50("chain.light_sync_ms"), "ms");
  return verdict;
}

/// Per-layer metrics a workload does not load read 0, so every run reports
/// the same names.
const char* const kPerLayerMetrics[][2] = {
    {"net.overhead_ms_p50", "ms"},       {"net.response_kib_mean", "KiB"},
    {"api.query_ms_p50", "ms"},          {"api.serialize_ms_p50", "ms"},
    {"api.proof_cache_hit_ratio", "ratio"},
    {"api.block_cache_hit_ratio", "ratio"},
    {"core.match_walk_ms_p50", "ms"},    {"core.aggregate_ms_p50", "ms"},
    {"core.prove_ms_p50", "ms"},         {"core.blocks_walked_mean", "count"},
    {"core.skips_taken_mean", "count"},  {"core.nodes_visited_mean", "count"},
    {"core.results_mean", "count"},      {"core.proofs_computed_mean", "count"},
    {"core.extra_results", "count"},     {"core.append_ms_p50", "ms"},
    {"accum.msm_ms_p50", "ms"},          {"accum.ms_per_proof", "ms"},
    {"store.sync_ms_p50", "ms"},         {"store.block_misses_per_query", "count"},
    {"store.kib_per_block", "KiB"},      {"sub.append_ms_p50", "ms"},
    {"sub.subscribe_ms_p50", "ms"},      {"sub.append_extra_ms_p50", "ms"},
    {"sub.drain_ms_p50", "ms"},          {"sub.events_per_block", "count"},
    {"chain.light_sync_ms_p50", "ms"},   {"bench.stage_residual_pct", "%"},
    {"bench.trace_overhead_pct", "%"},   {"bench.host_ref_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: vchain_perf --workload query-hot|query-cold|"
               "append-subscribe --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (run.work_dir.empty() || run.seconds <= 0 ||
      (run.workload != "query-hot" && run.workload != "query-cold" &&
       run.workload != "append-subscribe")) {
    return Usage();
  }
  std::filesystem::create_directories(run.work_dir);
  run.spans.set_enabled(run.trace);
  if (run.trace) {
    for (const auto& [name, unit] : kPerLayerMetrics) {
      run.report.Set(name, 0, unit);
    }
  }

  const double host_start = perf::HostRefMs();
  Verdict verdict = run.workload == "append-subscribe"
                        ? RunAppendSubscribe(&run)
                        : RunQueryWorkload(&run);
  const double host_end = perf::HostRefMs();
  std::fprintf(stderr, "host_ref_ms start %.3f end %.3f\n", host_start,
               host_end);
  if (run.trace) {
    run.report.Set("bench.host_ref_ms", (host_start + host_end) / 2, "ms");
    run.report.Set("core.extra_results",
                   static_cast<double>(run.extra_results.load()), "count");
    if (!run.spans.WriteJson(run.work_dir + "/spans.json")) {
      std::fprintf(stderr, "FAILED writing spans\n");
      verdict.ok = false;
    }
  } else {
    run.report.Set("peak_rss_mib", perf::PeakRssMiB(), "MiB");
  }
  std::fprintf(stderr,
               "timed phase: %.3f s, %" PRIu64 " answers, %" PRIu64
               " attempted, %" PRIu64 " failed, %" PRIu64 " extra results\n",
               run.timed_seconds, run.timed_answers, run.attempted.load(),
               run.failed.load(), run.extra_results.load());
  const bool correct = verdict.ok && run.failed.load() == 0 &&
                       run.attempted.load() > 0 && !verdict.fingerprint.empty();
  std::printf("fingerprint %s\n", verdict.fingerprint.c_str());
  std::printf("%s\n", run.report
                          .Json(correct, std::max<uint64_t>(run.attempted, 1),
                                run.failed.load())
                          .c_str());
  return correct ? 0 : 1;
}
