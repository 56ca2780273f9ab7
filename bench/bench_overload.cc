// Overload behavior: keep-alive query latency/goodput with the server
// alone vs under a 4x connection flood, plus how much of the flood the
// admission control sheds. The availability claim being tracked: shedding
// is what keeps the established clients' goodput near baseline instead of
// everyone timing out together. Emits BENCH_overload.json.
//
//   query_p99_baseline : p99 keep-alive query latency, no flood (ns)
//   query_p99_flood    : same clients while 4x flooders hammer accept
//   shed_rate          : fraction of flood connections answered 503/429
//
// The p99 goes in the median_ns column (the cross-PR diff tooling keys on
// op name, not on which percentile the column holds); throughput is the
// keep-alive clients' aggregate goodput in queries/s.
//
// `--quick` (CI smoke) shrinks the chain and iteration counts so the
// binary proves the shed path works in seconds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "harness.h"
#include "net/sp_client.h"
#include "net/sp_server.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

double Percentile(std::vector<double>* samples, double p) {
  std::sort(samples->begin(), samples->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples->size()));
  return (*samples)[std::min(idx, samples->size() - 1)];
}

/// One flood connection: connect, fire a healthz, read whatever comes back
/// (200, 429, 503, or a slammed door), close. Returns true when the server
/// answered at all — the flood must be *shed*, not ignored into timeouts.
bool FloodOnce(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{/*tv_sec=*/2, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool answered = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char req[] =
        "GET /healthz HTTP/1.1\r\nHost: sp\r\nConnection: close\r\n\r\n";
    if (::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL) > 0) {
      char buf[256];
      answered = ::recv(fd, buf, sizeof(buf), 0) > 0;
    }
  }
  ::close(fd);
  return answered;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  Scale scale = GetScale();
  const size_t blocks = quick ? 8 : scale.window_blocks.back();
  const size_t iters_per_client = quick ? 40 : 300;
  const size_t n_clients = 2;
  const size_t n_flooders = 4 * n_clients;  // the 4x overload

  DatasetProfile profile =
      workload::ProfileFor(workload::DatasetKind::k4SQ,
                           scale.objects_per_block);

  api::ServiceOptions opts;
  opts.engine = api::EngineKind::kMockAcc2;
  opts.config = ConfigFor(profile, IndexMode::kBoth);
  opts.oracle = SharedOracle();
  opts.prover_mode = ProverMode::kTrustedFast;
  auto svc = api::Service::Open(opts).TakeValue();

  DatasetGenerator gen(profile, /*seed=*/1234);
  for (size_t b = 0; b < blocks; ++b) {
    auto objs = gen.NextBlock();
    uint64_t ts = objs.front().timestamp;
    if (!svc->Append(std::move(objs), ts).ok()) std::abort();
  }

  // Two workers for the two keep-alive clients; a connection cap just above
  // them so the flood actually hits the shed path instead of parking forever.
  metrics::Registry registry;  // the shed/429 counters read below
  net::SpServer::Options sopts;
  sopts.http.registry = &registry;
  sopts.http.num_threads = n_clients;
  sopts.http.max_connections = n_clients + 2;
  auto server = net::SpServer::Start(svc.get(), sopts).TakeValue();

  auto headers = svc->Headers(0, blocks - 1).TakeValue();
  DatasetGenerator qgen(profile, /*seed=*/1234);
  core::Query q = qgen.MakeQuery(profile.default_selectivity,
                                 profile.default_clause_size,
                                 headers[blocks / 2].timestamp,
                                 headers.back().timestamp);

  // The keep-alive clients connect once, BEFORE any flood: the claim under
  // test is that established connections keep being served at near-baseline
  // goodput while the admission control sheds newcomers. (A client that had
  // to connect mid-flood would be a newcomer itself and correctly eat 503s.)
  std::vector<std::unique_ptr<net::SpClient>> clients;
  for (size_t c = 0; c < n_clients; ++c) {
    net::SpClient::Options copts;
    copts.port = server->port();
    copts.verify = opts;
    copts.retry.max_attempts = 1;  // raw latency, no retry smoothing
    clients.push_back(net::SpClient::Connect(copts).TakeValue());
  }

  // One measurement pass: each keep-alive client runs `iters_per_client`
  // queries on its own connection; per-request latencies are pooled.
  auto run_clients = [&](std::vector<double>* latencies, double* goodput) {
    std::vector<std::vector<double>> per_client(n_clients);
    std::vector<std::thread> threads;
    Timer wall;
    for (size_t c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        per_client[c].reserve(iters_per_client);
        for (size_t i = 0; i < iters_per_client; ++i) {
          Timer t;
          if (!clients[c]->Query(q).ok()) std::abort();
          per_client[c].push_back(t.ElapsedSeconds());
        }
      });
    }
    for (auto& t : threads) t.join();
    double seconds = wall.ElapsedSeconds();
    for (auto& samples : per_client) {
      latencies->insert(latencies->end(), samples.begin(), samples.end());
    }
    *goodput = static_cast<double>(n_clients * iters_per_client) / seconds;
  };

  std::printf("# overload — keep-alive query latency with and without a "
              "%zux connection flood (%zu blocks%s)\n",
              n_flooders / n_clients, blocks, quick ? ", quick" : "");
  std::printf("%-20s %14s %14s\n", "op", "p99_ns", "goodput_qps");
  BenchJson json("overload");

  std::vector<double> baseline;
  double baseline_qps = 0;
  run_clients(&baseline, &baseline_qps);
  double baseline_p99 = Percentile(&baseline, 0.99) * 1e9;
  std::printf("%-20s %14.0f %14.1f\n", "query_p99_baseline", baseline_p99,
              baseline_qps);
  json.Add("query_p99_baseline", blocks, baseline_p99, baseline_qps);

  // Connections shed at accept plus requests answered 429, so far.
  auto refused = [&registry] {
    return registry.GetCounter("vchain_http_shed_total", "")->Value() +
           registry.GetCounter("vchain_http_rate_limited_total", "")->Value();
  };
  const uint64_t refused_before = refused();

  std::atomic<bool> flooding{true};
  std::atomic<uint64_t> flood_attempts{0};
  std::atomic<uint64_t> flood_unanswered{0};
  std::vector<std::thread> flooders;
  for (size_t f = 0; f < n_flooders; ++f) {
    flooders.emplace_back([&] {
      while (flooding.load()) {
        flood_attempts.fetch_add(1);
        if (!FloodOnce(server->port())) flood_unanswered.fetch_add(1);
        // Pace each flooder: a real flood arrives over a network, it does
        // not timeshare the server's cores with a spin loop. The aggregate
        // is still hundreds of connection attempts per second against a
        // server whose admission control only has room for the two
        // established clients.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  std::vector<double> flooded;
  double flooded_qps = 0;
  run_clients(&flooded, &flooded_qps);
  flooding.store(false);
  for (auto& t : flooders) t.join();

  uint64_t shed = refused() - refused_before;
  uint64_t attempts = flood_attempts.load();
  double shed_rate =
      attempts > 0 ? static_cast<double>(shed) / static_cast<double>(attempts)
                   : 0;

  double flooded_p99 = Percentile(&flooded, 0.99) * 1e9;
  std::printf("%-20s %14.0f %14.1f\n", "query_p99_flood", flooded_p99,
              flooded_qps);
  json.Add("query_p99_flood", blocks, flooded_p99, flooded_qps);
  std::printf("%-20s %14.2f %14s   (%llu of %llu flood conns, "
              "%llu unanswered)\n",
              "shed_rate", shed_rate, "-",
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(attempts),
              static_cast<unsigned long long>(flood_unanswered.load()));
  json.Add("shed_rate", attempts, shed_rate * 100, 0);

  std::printf("# goodput under flood: %.0f%% of baseline; connections "
              "held after the flood %.0f (cap %zu)\n",
              baseline_qps > 0 ? 100 * flooded_qps / baseline_qps : 0,
              registry.GetGauge("vchain_http_active_connections", "")->Value(),
              sopts.http.max_connections);
  return 0;
}
