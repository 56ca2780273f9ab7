// Wire-protocol roundtrip overhead: the same query served in-process
// (Service::Query) vs over the loopback HTTP wire (SpClient -> SpServer),
// plus the fixed transport floor (healthz) and the batch amortization.
// Emits BENCH_net_roundtrip.json for cross-PR tracking.
//
//   healthz          : minimal request/response — the transport floor
//   inprocess-query  : Service::Query, no wire (the lower bound)
//   wire-query       : JSON in, canonical VO bytes out, keep-alive socket
//   wire-query-x16   : 16-query batch, per-query cost (one HTTP exchange)
//   wire-query-idle  : wire-query again while `--idle N` (default 10000)
//                      idle keep-alive connections are parked on the event
//                      loop — the medians must not move, or idle
//                      subscribers would tax every query (the idle_conns
//                      column records the held count per row)
//
// `--quick` (CI smoke) shrinks iterations so the binary proves the wire
// path works in seconds; absolute numbers come from full runs.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "harness.h"
#include "net/sp_client.h"
#include "net/sp_server.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

double MedianSeconds(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

/// `count` idle keep-alive connections parked on the server's event loop,
/// held open by a forked child. The child's fd table is separate from this
/// process's, so the server's `count` accepted fds and the holder's `count`
/// client fds do not fight over one RLIMIT_NOFILE budget — without the
/// fork, 2x10000 fds overflow a 20k limit and accept() starves.
struct IdleHolder {
  pid_t pid = -1;
  size_t held = 0;  ///< connections the child actually established
};

IdleHolder HoldIdleConnections(uint16_t port, size_t count) {
  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) return {};
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fd[0]);
    ::close(pipe_fd[1]);
    return {};
  }
  if (pid == 0) {
    // Child: connect, report the held count, then sleep until killed.
    // Syscalls only — after fork in a threaded process the heap and any
    // library locks are off limits.
    ::close(pipe_fd[0]);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    uint64_t held = 0;
    for (size_t i = 0; i < count; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::close(fd);
        break;
      }
      ++held;
    }
    [[maybe_unused]] ssize_t wn =
        ::write(pipe_fd[1], &held, sizeof(held));
    for (;;) ::pause();
  }
  ::close(pipe_fd[1]);
  uint64_t held = 0;
  size_t got = 0;
  while (got < sizeof(held)) {
    ssize_t rn = ::read(pipe_fd[0], reinterpret_cast<char*>(&held) + got,
                        sizeof(held) - got);
    if (rn <= 0) break;
    got += static_cast<size_t>(rn);
  }
  ::close(pipe_fd[0]);
  return {pid, static_cast<size_t>(held)};
}

void ReleaseIdleConnections(IdleHolder* holder) {
  if (holder->pid <= 0) return;
  ::kill(holder->pid, SIGKILL);
  ::waitpid(holder->pid, nullptr, 0);
  holder->pid = -1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  size_t idle_target = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--idle" && i + 1 < argc) {
      idle_target = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  Scale scale = GetScale();
  const size_t blocks = quick ? 8 : scale.window_blocks.back();
  const size_t iters = quick ? 3 : 25;
  const size_t batch = 16;
  if (idle_target == 0) idle_target = quick ? 256 : 10000;

  DatasetProfile profile =
      workload::ProfileFor(workload::DatasetKind::k4SQ,
                           scale.objects_per_block);

  std::printf("# net roundtrip — wire vs in-process query latency "
              "(%zu blocks, %zu iters%s)\n",
              blocks, iters, quick ? ", quick" : "");
  std::printf("%-24s %-18s %14s %12s %10s\n", "op", "engine", "median_ns",
              "ops/s", "idle_conns");
  BenchJson json("net_roundtrip");

  for (api::EngineKind kind :
       {api::EngineKind::kMockAcc2, api::EngineKind::kAcc2}) {
    const char* engine_name = api::EngineKindName(kind);

    api::ServiceOptions opts;
    opts.engine = kind;
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

    // Own registry per server: the active-connection gauge below must not
    // count the previous engine's server.
    metrics::Registry registry;
    net::SpServer::Options sopts;
    sopts.http.registry = &registry;
    sopts.http.num_threads = 2;
    sopts.http.max_connections = idle_target + 16;
    sopts.http.recv_timeout_seconds = 300;  // the idles must outlive the run
    auto server = net::SpServer::Start(svc.get(), sopts).TakeValue();
    net::SpClient::Options copts;
    copts.port = server->port();
    copts.verify = opts;  // same shared oracle: setup cost not re-paid
    auto client = net::SpClient::Connect(copts).TakeValue();

    chain::LightClient light = client->NewLightClient();
    if (!client->SyncHeaders(&light).ok()) std::abort();

    // One representative query over the newer half of the chain.
    auto headers = svc->Headers(0, blocks - 1).TakeValue();
    DatasetGenerator qgen(profile, /*seed=*/1234);
    core::Query q = qgen.MakeQuery(profile.default_selectivity,
                                   profile.default_clause_size,
                                   headers[blocks / 2].timestamp,
                                   headers.back().timestamp);

    size_t held_idle = 0;  // idle keep-alive connections parked right now
    auto measure = [&](const char* op, auto body) {
      std::vector<double> samples;
      samples.reserve(iters);
      for (size_t i = 0; i < iters; ++i) {
        Timer t;
        body();
        samples.push_back(t.ElapsedSeconds());
      }
      double median = MedianSeconds(&samples);
      std::printf("%-24s %-18s %14.0f %12.1f %10zu\n", op, engine_name,
                  median * 1e9, median > 0 ? 1.0 / median : 0, held_idle);
      json.Add(std::string(op) + "-" + engine_name, blocks, median * 1e9,
               median > 0 ? 1.0 / median : 0);
    };

    measure("healthz", [&] {
      if (!client->Healthz().ok()) std::abort();
    });
    measure("inprocess-query", [&] {
      if (!svc->Query(q).ok()) std::abort();
    });
    measure("wire-query", [&] {
      auto r = client->Query(q);
      if (!r.ok()) std::abort();
    });
    measure("wire-query-x16", [&] {
      std::vector<core::Query> qs(batch, q);
      auto r = client->QueryBatch(qs);
      if (!r.ok()) std::abort();
    });

    // The event-loop claim: thousands of idle keep-alive subscribers cost
    // one epoll set, so query medians must not move while they are held.
    // connect() returns at SYN-ACK, before the loop has accepted — wait for
    // steady state so the accept burst is not what gets measured.
    IdleHolder idle = HoldIdleConnections(server->port(), idle_target);
    held_idle = idle.held;
    const metrics::Gauge* active = registry.GetGauge(
        "vchain_http_active_connections", "");
    for (int spins = 0; spins < 2000; ++spins) {
      if (active->Value() > static_cast<double>(held_idle)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    measure("wire-query-idle", [&] {
      auto r = client->Query(q);
      if (!r.ok()) std::abort();
    });
    ReleaseIdleConnections(&idle);
  }
  return 0;
}
