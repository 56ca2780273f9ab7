// Crash loop: hundreds of append / fault / power-cut / reopen cycles per
// engine, driven through FaultInjectionEnv. The invariants, every cycle:
//
//   1. Reopen NEVER reports Corruption — injected write/sync failures and
//      power-cut writeback artifacts are crash damage, and crash damage
//      always recovers to a clean prefix (Corruption is reserved for bit
//      rot in fsync'd data, which this test never produces).
//   2. Recovery never loses durable blocks: the recovered height is at
//      least the last height a successful Sync() (or sync_every_append
//      append) covered.
//   3. The recovered prefix is bit-identical to the reference chain —
//      header hashes always, and periodically the full query path: a
//      TimeWindowQuery served from the recovered store returns the same
//      response bytes (results + VO) as the in-memory reference.
//
// Mining is deterministic per height (the per-block Rng is seeded by the
// height), so a block lost to a crash and re-mined after recovery is
// bit-identical to the reference chain's block at that height.
//
// Cycle counts: VCHAIN_CRASH_CYCLES overrides per engine (tools/crash_loop.sh
// raises it; --quick lowers it). Defaults sum to >200 across the four
// engines.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rand.h"
#include "core/vchain.h"
#include "store/env.h"

namespace vchain::store {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::NumericSchema;
using chain::Object;
using core::ChainBuilder;
using core::ChainConfig;
using core::IndexMode;
using core::Query;
using core::QueryProcessor;
using core::QueryResponse;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;
constexpr uint64_t kMineSeedBase = 0xC0FFEE;

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_crash_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(got);
}

template <typename Engine>
Engine MakeEngine() {
  AccParams params;
  params.universe_bits = 16;
  auto oracle = KeyOracle::Create(/*seed=*/2024, params);
  if constexpr (std::is_same_v<Engine, accum::Acc1Engine> ||
                std::is_same_v<Engine, accum::Acc2Engine>) {
    return Engine(oracle, accum::ProverMode::kTrustedFast);
  } else {
    return Engine(oracle);
  }
}

ChainConfig TestConfig() {
  ChainConfig config;
  config.mode = IndexMode::kBoth;
  config.schema = NumericSchema{2, 8};
  config.skiplist_size = 3;
  return config;
}

/// Mine the next block. Deterministic per height: re-mining height h after
/// a crash reproduces the reference chain's block h bit for bit.
template <typename Engine>
Status MineNext(ChainBuilder<Engine>* builder) {
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  uint64_t height = builder->NumBlocks();
  Rng rng(kMineSeedBase + height);
  uint64_t ts = kBaseTime + height * kTimeStep;
  std::vector<Object> objs;
  for (size_t i = 0; i < 3; ++i) {
    Object o;
    o.id = height * 1000 + i;
    o.timestamp = ts;
    o.numeric = {rng.Below(builder->config().schema.DomainSize()),
                 rng.Below(builder->config().schema.DomainSize())};
    o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
    objs.push_back(std::move(o));
  }
  auto st = builder->AppendBlock(std::move(objs), ts);
  return st.ok() ? Status::OK() : st.status();
}

template <typename Engine>
Bytes ResponseBytes(const Engine& engine, const QueryResponse<Engine>& resp) {
  ByteWriter w;
  SerializeResponse(engine, resp, &w);
  return w.bytes();
}

size_t CyclesFor(bool mock_engine) {
  if (const char* env = std::getenv("VCHAIN_CRASH_CYCLES")) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return mock_engine ? 80 : 25;
}

template <typename Engine>
class CrashLoopTest : public ::testing::Test {};

using AllEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                     accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(CrashLoopTest, AllEngines);

TYPED_TEST(CrashLoopTest, RecoversToCleanDurablePrefixEveryCycle) {
  using Engine = TypeParam;
  constexpr bool kMock = std::is_same_v<Engine, accum::MockAcc1Engine> ||
                         std::is_same_v<Engine, accum::MockAcc2Engine>;
  const size_t kCycles = CyclesFor(kMock);

  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig();

  // The reference chain, mined in memory ahead of the store. Deterministic
  // mining makes it the ground truth for every height the store ever holds.
  ChainBuilder<Engine> ref(engine, config);

  FaultInjectionEnv fenv;
  Rng rng(/*seed=*/0xDECAF + (kMock ? 1 : 2));
  uint64_t durable_height = 0;  // proven-durable lower bound for recovery

  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    BlockStore::Options sopts;
    sopts.env = &fenv;
    sopts.segment_target_bytes = 8192;  // force segment rolls
    sopts.sync_every_append = (cycle % 2 == 1);

    // Occasionally the crash hits during recovery itself: arm a fault for
    // the reopen, require a non-Corruption failure or success, then clear
    // and reopen for real.
    if (rng.Chance(0.15)) {
      FaultInjectionEnv::Fault f;
      f.op = rng.Chance(0.5) ? FaultInjectionEnv::Fault::Op::kWrite
                             : FaultInjectionEnv::Fault::Op::kSync;
      f.at = 1 + rng.Below(3);
      fenv.ScheduleFault(f);
      auto attempt = BlockStore::Open(dir, sopts);
      if (!attempt.ok()) {
        ASSERT_NE(attempt.status().code(), Status::Code::kCorruption)
            << attempt.status().ToString();
      }
      fenv.ClearFault();
    }

    auto db = BlockStore::Open(dir, sopts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();  // invariant 1
    uint64_t recovered = db.value()->NumBlocks();
    ASSERT_GE(recovered, durable_height);  // invariant 2
    ASSERT_LE(recovered, ref.NumBlocks() + 8);

    // Invariant 3a: every recovered header is the reference chain's header.
    while (ref.NumBlocks() < recovered) {
      ASSERT_TRUE(MineNext(&ref).ok());
    }
    for (uint64_t h = 0; h < recovered; ++h) {
      ASSERT_EQ(db.value()->HeaderAt(h).Hash(), ref.blocks()[h].header.Hash())
          << "height " << h;
    }

    // Invariant 3b (periodically — the query path is the expensive part):
    // a window query over the recovered prefix returns bit-identical
    // response bytes to the in-memory reference.
    if (recovered >= 3 && (cycle % 7 == 0 || cycle + 1 == kCycles)) {
      ConcurrentStoreBlockSource<Engine> disk(engine, db.value().get(), 4);
      auto source = disk.MakeHandle();
      QueryProcessor<Engine> disk_sp(engine, config, &source);
      store::VectorBlockSource<Engine> mem_source(&ref.blocks());
      QueryProcessor<Engine> mem_sp(engine, config, &mem_source);
      Query q;
      q.time_start = kBaseTime;
      q.time_end = kBaseTime + (recovered - 1) * kTimeStep;
      q.ranges = {{0, 10, 120}};
      q.keyword_cnf = {{"Sedan"}, {"Benz", "BMW"}};
      auto disk_resp = disk_sp.TimeWindowQuery(q);
      auto mem_resp = mem_sp.TimeWindowQuery(q);
      ASSERT_TRUE(disk_resp.ok()) << disk_resp.status().ToString();
      ASSERT_TRUE(mem_resp.ok()) << mem_resp.status().ToString();
      ASSERT_EQ(ResponseBytes(engine, disk_resp.value()),
                ResponseBytes(engine, mem_resp.value()));
    }

    // Resume mining under an armed fault, then pull the plug.
    auto resumed =
        ChainBuilder<Engine>::ResumeFromStore(engine, config, db.value().get());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

    FaultInjectionEnv::Fault fault;
    switch (rng.Below(5)) {
      case 0: break;  // clean cycle: power cut only
      case 1:
        fault.op = FaultInjectionEnv::Fault::Op::kWrite;
        fault.err = 5;  // EIO
        break;
      case 2:
        fault.op = FaultInjectionEnv::Fault::Op::kWrite;
        fault.err = 28;  // ENOSPC
        break;
      case 3:
        fault.op = FaultInjectionEnv::Fault::Op::kWrite;
        fault.err = 5;
        fault.short_write = true;  // torn frame on disk
        break;
      case 4:
        fault.op = FaultInjectionEnv::Fault::Op::kSync;
        fault.err = 5;
        break;
    }
    fault.at = 1 + rng.Below(8);
    fenv.ScheduleFault(fault);

    size_t to_mine = 1 + rng.Below(3);
    bool write_failed = false;
    for (size_t i = 0; i < to_mine && !write_failed; ++i) {
      Status st = MineNext(&resumed.value());
      if (!st.ok()) {
        ASSERT_NE(st.code(), Status::Code::kCorruption) << st.ToString();
        write_failed = true;
      } else if (sopts.sync_every_append) {
        durable_height = db.value()->NumBlocks();
      }
    }
    // A write that failed mid-record puts the store into write-refusal
    // until reopened (a failed segment *roll* is retryable — nothing was
    // recorded — and leaves the store healthy).
    if (write_failed && db.value()->broken()) {
      Status again = MineNext(&resumed.value());
      ASSERT_FALSE(again.ok());
    }
    if (!write_failed && rng.Chance(0.6)) {
      Status synced = db.value()->Sync();
      if (synced.ok()) {
        durable_height = db.value()->NumBlocks();
      } else {
        ASSERT_NE(synced.code(), Status::Code::kCorruption)
            << synced.ToString();
      }
    }

    db.value().reset();  // "kill -9": drop the process state...
    fenv.ClearFault();
    ASSERT_TRUE(fenv.PowerCut(rng.Next()).ok());  // ...and the page cache
  }
}

}  // namespace
}  // namespace vchain::store
