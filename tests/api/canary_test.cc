// The verification canary: the SP auditing itself. A clean chain must
// produce only vchain_canary_verified_total increments (failed stays 0 —
// that flat 0 is the observable "all clear"); a byte-level tamper of the
// durable store must fire vchain_canary_failed_total even though the store
// opens cleanly (CRC repaired) and the query path happily serves the
// tampered object. Also pins the introspection plane's prime directive:
// response bytes are bit-identical with tracing + canary + recorder on vs
// everything off.
//
// Canary totals live in the process-wide metrics registry (one source of
// truth), so every assertion is a delta, never an absolute.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "api/query_builder.h"
#include "api/service.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "chain/header.h"
#include "core/vchain.h"
#include "store/segment_log.h"

namespace vchain::api {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::NumericSchema;
using chain::Object;
using core::ChainConfig;
using core::IndexMode;
using core::Query;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;
constexpr size_t kBlocks = 6;
constexpr size_t kObjectsPerBlock = 3;

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_canary_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(got);
}

template <typename Engine>
EngineKind KindOf() {
  if constexpr (std::is_same_v<Engine, accum::MockAcc1Engine>) {
    return EngineKind::kMockAcc1;
  } else if constexpr (std::is_same_v<Engine, accum::MockAcc2Engine>) {
    return EngineKind::kMockAcc2;
  } else if constexpr (std::is_same_v<Engine, accum::Acc1Engine>) {
    return EngineKind::kAcc1;
  } else {
    return EngineKind::kAcc2;
  }
}

template <typename Engine>
ServiceOptions BaseOptions(std::string store_dir = "") {
  ServiceOptions opts;
  opts.engine = KindOf<Engine>();
  opts.config.mode = IndexMode::kBoth;
  opts.config.schema = NumericSchema{2, 8};
  opts.config.skiplist_size = 3;
  opts.oracle = KeyOracle::Create(/*seed=*/2026, AccParams{16});
  opts.prover_mode = accum::ProverMode::kTrustedFast;
  opts.store_dir = std::move(store_dir);
  return opts;
}

/// Deterministic chain where every object matches MatchAllQuery below, so
/// any tampered object is guaranteed to ride in the result set R (the
/// client re-hashes received objects — that is the mismatch the canary
/// must catch).
void MineChain(Service* svc) {
  static const char* kMakes[] = {"Benz", "BMW", "Audi"};
  uint64_t id = 0;
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<Object> objs;
    for (size_t i = 0; i < kObjectsPerBlock; ++i) {
      Object o;
      o.id = 1000 + id;
      o.timestamp = kBaseTime + b * kTimeStep;
      o.numeric = {10 + id % 50, 20 + id % 50};
      o.keywords = {"Sedan", kMakes[id % 3]};
      objs.push_back(std::move(o));
      ++id;
    }
    Status st = svc->Append(objs, kBaseTime + b * kTimeStep);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

Query MatchAllQuery() {
  return QueryBuilder()
      .Window(kBaseTime, kBaseTime + (kBlocks - 1) * kTimeStep)
      .AllOf({"Sedan"})
      .Build();
}

struct CanaryCounts {
  uint64_t verified, failed, skipped;
};

CanaryCounts ReadCanaryCounts() {
  metrics::Registry& r = metrics::Registry::Default();
  return {
      r.GetCounter("vchain_canary_verified_total", "")->Value(),
      r.GetCounter("vchain_canary_failed_total", "")->Value(),
      r.GetCounter("vchain_canary_skipped_total", "")->Value(),
  };
}

/// Flip one byte of objects[0].id inside the first block record of
/// seg-000000.log and repair the record CRC, so the store reopens cleanly
/// and serves the tampered object as if nothing happened.
void TamperFirstBlockObjectId(const std::string& store_dir) {
  std::string path = store_dir + "/seg-000000.log";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  const size_t rec = store::SegmentLog::kFileHeaderBytes;
  const size_t payload_off = rec + store::SegmentLog::kRecordHeaderBytes;
  ASSERT_GT(bytes.size(), payload_off + chain::BlockHeader::kSerializedSize);
  auto u32_at = [&bytes](size_t off) {
    return static_cast<uint32_t>(static_cast<uint8_t>(bytes[off])) |
           static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 3])) << 24;
  };
  const uint32_t len = u32_at(rec);
  ASSERT_LE(payload_off + len, bytes.size());

  // Record payload = 120-byte header || body; the body opens with the
  // object count (u32) followed by objects[0], whose first field is id.
  const size_t id_off =
      payload_off + chain::BlockHeader::kSerializedSize + sizeof(uint32_t);
  bytes[id_off] = static_cast<char>(static_cast<uint8_t>(bytes[id_off]) ^ 0xff);

  // Repair the CRC (it covers len || payload) so recovery sees a clean
  // record — this models a malicious SP, not bit rot.
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  uint32_t crc = Crc32c(ByteSpan(base + payload_off, len),
                        Crc32c(ByteSpan(base + rec, 4)));
  bytes[rec + 4] = static_cast<char>(crc);
  bytes[rec + 5] = static_cast<char>(crc >> 8);
  bytes[rec + 6] = static_cast<char>(crc >> 16);
  bytes[rec + 7] = static_cast<char>(crc >> 24);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

template <typename Engine>
class CanaryTest : public ::testing::Test {};

using AllEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                     accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(CanaryTest, AllEngines);

TYPED_TEST(CanaryTest, CleanChainVerifiesAndNeverFails) {
  ServiceOptions opts = BaseOptions<TypeParam>();
  opts.canary_sample_every = 1;  // audit every query
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  MineChain(svc.value().get());

  CanaryCounts before = ReadCanaryCounts();
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    auto result = svc.value()->Query(MatchAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().objects.size(), kBlocks * kObjectsPerBlock);
  }
  svc.value()->DrainCanary();
  CanaryCounts after = ReadCanaryCounts();
  EXPECT_EQ(after.verified, before.verified + kQueries);
  EXPECT_EQ(after.failed, before.failed);  // the "all clear"
  EXPECT_EQ(after.skipped, before.skipped);

  // The canary totals surface through Stats() (read back from the
  // registry), and the trace ring retained the sampled queries.
  ServiceStats stats = svc.value()->Stats();
  EXPECT_EQ(stats.canary_verified, after.verified);
  EXPECT_EQ(stats.canary_failed, after.failed);
  EXPECT_GT(stats.trace_ring_occupancy, 0u);
}

TYPED_TEST(CanaryTest, TamperedStoreFiresCanary) {
  std::string dir = UniqueDir();
  {
    auto svc = Service::Open(BaseOptions<TypeParam>(dir));
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    MineChain(svc.value().get());
    ASSERT_TRUE(svc.value()->Sync().ok());
  }
  TamperFirstBlockObjectId(dir);

  ServiceOptions opts = BaseOptions<TypeParam>(dir);
  opts.canary_sample_every = 1;
  auto svc = Service::Open(std::move(opts));
  // The tamper is CRC-consistent: the store must open and serve normally.
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  CanaryCounts before = ReadCanaryCounts();
  auto result = svc.value()->Query(MatchAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  svc.value()->DrainCanary();
  CanaryCounts after = ReadCanaryCounts();
  EXPECT_GE(after.failed, before.failed + 1)
      << "canary did not fire on a tampered store";
  EXPECT_EQ(after.verified, before.verified);
}

TYPED_TEST(CanaryTest, QueueCapSkipsInsteadOfBlocking) {
  ServiceOptions opts = BaseOptions<TypeParam>();
  opts.canary_sample_every = 1;
  opts.canary_max_pending = 0;  // zero budget: every sample is shed
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  MineChain(svc.value().get());

  CanaryCounts before = ReadCanaryCounts();
  ASSERT_TRUE(svc.value()->Query(MatchAllQuery()).ok());
  svc.value()->DrainCanary();
  CanaryCounts after = ReadCanaryCounts();
  EXPECT_EQ(after.skipped, before.skipped + 1);
  EXPECT_EQ(after.verified, before.verified);
  EXPECT_EQ(after.failed, before.failed);
}

// The introspection plane must be invisible in the bytes: the same chain
// answers with bit-identical responses whether tracing + canary are all on
// or all off. (Verification depends on this — and so does the canary
// itself, which replays the bytes the client saw.)
TYPED_TEST(CanaryTest, ResponseBytesIdenticalWithIntrospectionOnAndOff) {
  ServiceOptions on = BaseOptions<TypeParam>();
  on.tracing = true;
  on.canary_sample_every = 1;
  ServiceOptions off = BaseOptions<TypeParam>();
  off.tracing = false;
  off.canary_sample_every = 0;

  auto svc_on = Service::Open(std::move(on));
  auto svc_off = Service::Open(std::move(off));
  ASSERT_TRUE(svc_on.ok()) << svc_on.status().ToString();
  ASSERT_TRUE(svc_off.ok()) << svc_off.status().ToString();
  MineChain(svc_on.value().get());
  MineChain(svc_off.value().get());

  CanaryCounts before = ReadCanaryCounts();
  std::vector<Query> queries = {
      MatchAllQuery(),
      QueryBuilder()
          .Window(kBaseTime + kTimeStep, kBaseTime + 3 * kTimeStep)
          .Range(0, 0, 40)
          .AnyOf({"Benz", "BMW"})
          .Build(),
  };
  for (const Query& q : queries) {
    core::QueryTrace trace;
    auto traced = svc_on.value()->Query(q, &trace);
    auto untraced = svc_off.value()->Query(q);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
    EXPECT_EQ(traced.value().response_bytes, untraced.value().response_bytes);
    // The traced side really did build a span tree, and it folds to a total.
    ASSERT_NE(trace.spans, nullptr);
    EXPECT_GT(trace.spans->NumSpans(), 1u);
    EXPECT_GT(trace.Stages().total_ns, 0u);
  }
  svc_on.value()->DrainCanary();
  EXPECT_EQ(ReadCanaryCounts().failed, before.failed);  // clean chain
}

}  // namespace
}  // namespace vchain::api
