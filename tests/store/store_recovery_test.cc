// Crash-recovery: sever the store's segment file mid-record (a torn write),
// reopen, and assert the surviving prefix is byte-for-byte the chain that
// was committed — digests, query results and VO bytes identical to the
// in-memory original.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
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

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_recovery_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(got);
}

using Engine = accum::MockAcc2Engine;

Engine MakeEngine() {
  AccParams params;
  params.universe_bits = 16;
  return Engine(KeyOracle::Create(/*seed=*/2024, params));
}

ChainConfig TestConfig() {
  ChainConfig config;
  config.mode = IndexMode::kBoth;
  config.schema = NumericSchema{2, 8};
  config.skiplist_size = 3;
  return config;
}

void Mine(ChainBuilder<Engine>* builder, size_t num_blocks,
          size_t objects_per_block, uint64_t seed) {
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  Rng rng(seed);
  uint64_t id = builder->NumBlocks() * 1000;
  for (size_t b = 0; b < num_blocks; ++b) {
    uint64_t ts = kBaseTime + builder->NumBlocks() * kTimeStep;
    std::vector<Object> objs;
    for (size_t i = 0; i < objects_per_block; ++i) {
      Object o;
      o.id = id++;
      o.timestamp = ts;
      o.numeric = {rng.Below(builder->config().schema.DomainSize()),
                   rng.Below(builder->config().schema.DomainSize())};
      o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
      objs.push_back(std::move(o));
    }
    auto st = builder->AppendBlock(std::move(objs), ts);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
}

/// The last segment file in `dir` (highest index).
std::string LastSegment(const std::string& dir) {
  std::string last;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string p = entry.path().string();
    if (p > last) last = p;
  }
  EXPECT_FALSE(last.empty());
  return last;
}

Bytes ResponseBytes(const Engine& engine, const QueryResponse<Engine>& resp) {
  ByteWriter w;
  SerializeResponse(engine, resp, &w);
  return w.bytes();
}

TEST(StoreRecoveryTest, TornTailRecoveryPreservesCommittedPrefixExactly) {
  constexpr size_t kBlocks = 20;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> miner(engine, config);
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, kBlocks - 1, 4, /*seed=*/13);
    ASSERT_TRUE(db.value()->Sync().ok());  // watermark: blocks 0..kBlocks-2
    Mine(&miner, 1, 4, /*seed=*/13);       // final block, never fsync'd
  }

  // Crash simulation: sever the final segment mid-way through its last
  // record (a torn write leaves a prefix of the record on disk). Only the
  // unsynced final block is severed — damage below the commit watermark
  // would be bit rot, which Open reports as Corruption instead.
  std::string seg = LastSegment(dir);
  uint64_t size = std::filesystem::file_size(seg);
  ASSERT_EQ(truncate(seg.c_str(), static_cast<off_t>(size - 37)), 0);

  BlockStore::RecoveryStats stats;
  auto db = BlockStore::Open(dir, BlockStore::Options{}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db.value()->NumBlocks(), kBlocks - 1);
  EXPECT_GT(stats.truncated_bytes, 0u);

  // Every surviving block decodes to exactly the bytes the miner produced:
  // header hash (committing to all digests) and the full re-encoded body.
  for (uint64_t h = 0; h + 1 < kBlocks; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(),
              miner.blocks()[h].header.Hash());
    auto block = ReadBlockFromStore(engine, *db.value(), h);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    ByteWriter disk_w, mem_w;
    SerializeBlockBody(engine, block.value(), &disk_w);
    SerializeBlockBody(engine, miner.blocks()[h], &mem_w);
    EXPECT_EQ(disk_w.bytes(), mem_w.bytes()) << "height " << h;
  }

  // A window query over the surviving prefix returns bit-identical result
  // and VO bytes to the in-memory chain.
  ConcurrentStoreBlockSource<Engine> disk(engine, db.value().get(), 4);
  auto source = disk.MakeHandle();
  QueryProcessor<Engine> disk_sp(engine, config, &source);
  store::VectorBlockSource<Engine> mem_source(&miner.blocks());
  QueryProcessor<Engine> mem_sp(engine, config, &mem_source);
  Query q;
  q.time_start = kBaseTime;
  q.time_end = kBaseTime + (kBlocks - 2) * kTimeStep;
  q.ranges = {{0, 10, 120}};
  q.keyword_cnf = {{"Sedan"}, {"Benz", "BMW"}};
  auto disk_resp = disk_sp.TimeWindowQuery(q);
  auto mem_resp = mem_sp.TimeWindowQuery(q);
  ASSERT_TRUE(disk_resp.ok());
  ASSERT_TRUE(mem_resp.ok());
  EXPECT_EQ(ResponseBytes(engine, disk_resp.value()),
            ResponseBytes(engine, mem_resp.value()));

  // And a cold light client accepts the disk-served response.
  chain::LightClient light;
  ASSERT_TRUE(db.value()->SyncLightClient(&light).ok());
  core::Verifier<Engine> verifier(engine, config, &light);
  EXPECT_TRUE(verifier.VerifyTimeWindow(q, disk_resp.value()).ok());

  // Mining resumes on top of the recovered prefix: the re-mined block slots
  // back into the chain at the severed height.
  auto resumed =
      ChainBuilder<Engine>::ResumeFromStore(engine, config, db.value().get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Mine(&resumed.value(), 1, 4, /*seed=*/14);
  EXPECT_EQ(db.value()->NumBlocks(), kBlocks);
}

// Unsynced writeback is not ordered: after a power loss, a damaged record
// *past* the commit watermark with clean records after it must recover to
// the clean prefix instead of bricking the store (the same damage below the
// watermark is bit rot in fsync'd data — see FlippedBodyByteIsDetectedAtOpen).
TEST(StoreRecoveryTest, UnsyncedMidFileDamageRecoversToCleanPrefix) {
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> miner(engine, config);
  uint64_t synced_size = 0;
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 4, 4, /*seed=*/31);
    ASSERT_TRUE(db.value()->Sync().ok());  // watermark after block 3
    synced_size = std::filesystem::file_size(LastSegment(dir));
    Mine(&miner, 4, 4, /*seed=*/32);  // blocks 4..7, never synced
  }
  // "Power loss with reordered writeback": a byte inside record 4 (past the
  // watermark) is damaged while records 5..7 landed clean.
  std::string seg = LastSegment(dir);
  {
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(synced_size + 200), SEEK_SET),
              0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  BlockStore::RecoveryStats stats;
  auto db = BlockStore::Open(dir, BlockStore::Options{}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db.value()->NumBlocks(), 4u);  // the synced prefix, exactly
  EXPECT_GT(stats.truncated_bytes, 0u);
  for (uint64_t h = 0; h < 4; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(), miner.blocks()[h].header.Hash());
  }
  // Mining resumes on the recovered prefix.
  auto resumed =
      ChainBuilder<Engine>::ResumeFromStore(engine, config, db.value().get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Mine(&resumed.value(), 1, 4, /*seed=*/33);
  EXPECT_EQ(db.value()->NumBlocks(), 5u);
}

// The disk fills mid-append (injected ENOSPC): the store must refuse
// further writes — the on-disk state is ambiguous — while reads over the
// already-appended prefix stay valid, and a reopen recovers exactly the
// durable prefix and resumes mining.
TEST(StoreRecoveryTest, EnospcDuringAppendFailsStoreAndReopenRecovers) {
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();
  FaultInjectionEnv fenv;
  BlockStore::Options opts;
  opts.env = &fenv;

  ChainBuilder<Engine> miner(engine, config);
  {
    auto db = BlockStore::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 5, 4, /*seed=*/41);
    ASSERT_TRUE(db.value()->Sync().ok());  // watermark after block 4

    FaultInjectionEnv::Fault fault;
    fault.op = FaultInjectionEnv::Fault::Op::kWrite;
    fault.err = 28;  // ENOSPC
    fault.at = 1;
    fenv.ScheduleFault(fault);
    auto st = miner.AppendBlock(
        {{.id = 9000,
          .timestamp = kBaseTime + 5 * kTimeStep,
          .numeric = {1, 2},
          .keywords = {"Sedan", "Benz"}}},
        kBaseTime + 5 * kTimeStep);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.status().ToString().find("No space left"), std::string::npos)
        << st.status().ToString();
    fenv.ClearFault();

    // Write-refusal: even with space back, the store stays failed ...
    EXPECT_TRUE(db.value()->broken());
    auto again = miner.AppendBlock(
        {{.id = 9001,
          .timestamp = kBaseTime + 5 * kTimeStep,
          .numeric = {1, 2},
          .keywords = {"Sedan", "Benz"}}},
        kBaseTime + 5 * kTimeStep);
    EXPECT_FALSE(again.ok());
    // ... but reads over the durable prefix still serve.
    EXPECT_EQ(db.value()->NumBlocks(), 5u);
    EXPECT_TRUE(db.value()->ReadRecord(4).ok());
  }

  // Reopen: recovery truncates the ambiguous tail back to the durable
  // prefix and mining resumes.
  BlockStore::RecoveryStats stats;
  auto db = BlockStore::Open(dir, opts, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db.value()->NumBlocks(), 5u);
  for (uint64_t h = 0; h < 5; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(), miner.blocks()[h].header.Hash());
  }
  auto resumed =
      ChainBuilder<Engine>::ResumeFromStore(engine, config, db.value().get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Mine(&resumed.value(), 2, 4, /*seed=*/42);
  EXPECT_EQ(db.value()->NumBlocks(), 7u);
}

// fsync fails under sync_every_append (fsyncgate: the kernel may have
// dropped the page, so "retry the fsync" is not a recovery strategy). The
// append must report failure, the store must refuse further writes, and a
// reopen recovers a consistent prefix that includes everything previously
// acknowledged as durable.
TEST(StoreRecoveryTest, FsyncFailureDuringAppendFailsStoreAndReopenRecovers) {
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();
  FaultInjectionEnv fenv;
  BlockStore::Options opts;
  opts.env = &fenv;
  opts.sync_every_append = true;

  ChainBuilder<Engine> miner(engine, config);
  {
    auto db = BlockStore::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 4, 4, /*seed=*/51);  // each append acked durable

    FaultInjectionEnv::Fault fault;
    fault.op = FaultInjectionEnv::Fault::Op::kSync;
    fault.at = 1;
    fenv.ScheduleFault(fault);
    auto st = miner.AppendBlock(
        {{.id = 9100,
          .timestamp = kBaseTime + 4 * kTimeStep,
          .numeric = {1, 2},
          .keywords = {"Sedan", "Benz"}}},
        kBaseTime + 4 * kTimeStep);
    ASSERT_FALSE(st.ok());
    fenv.ClearFault();
    EXPECT_TRUE(db.value()->broken());
    EXPECT_EQ(db.value()->NumBlocks(), 4u);  // the failed block was not acked
  }
  // Power loss after the failed fsync: unsynced pages may vanish.
  ASSERT_TRUE(fenv.PowerCut(/*seed=*/77).ok());

  auto db = BlockStore::Open(dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_GE(db.value()->NumBlocks(), 4u);  // acked durability held
  for (uint64_t h = 0; h < 4; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(), miner.blocks()[h].header.Hash());
  }
  auto resumed =
      ChainBuilder<Engine>::ResumeFromStore(engine, config, db.value().get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
}

TEST(StoreRecoveryTest, FlippedBodyByteIsDetectedAtOpen) {
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> miner(engine, config);
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 6, 3, /*seed=*/21);
    ASSERT_TRUE(db.value()->Sync().ok());
  }
  // Flip a byte deep in the middle of the segment (inside an early record).
  std::string seg = LastSegment(dir);
  std::FILE* f = std::fopen(seg.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 256, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  auto db = BlockStore::Open(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), Status::Code::kCorruption);
}

// The watermark, not EOF adjacency, decides bit-rot vs torn-write: damage in
// the *last* record of a fully fsync'd store is bit rot and must refuse to
// open rather than silently truncate a durably committed block.
TEST(StoreRecoveryTest, BitRotInLastSyncedRecordIsCorruptionNotTruncation) {
  std::string dir = UniqueDir();
  Engine engine = MakeEngine();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> miner(engine, config);
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 6, 3, /*seed=*/22);
    ASSERT_TRUE(db.value()->Sync().ok());  // watermark at end of record 5
  }
  std::string seg = LastSegment(dir);
  uint64_t size = std::filesystem::file_size(seg);
  std::FILE* f = std::fopen(seg.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(size - 10), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  auto db = BlockStore::Open(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace vchain::store
