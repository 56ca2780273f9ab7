// The time-window lookup, differentially: the shared function
// (chain::HeightRangeForWindow), the SP's query processor and the light
// client's HeightRangeForWindow must all equal a brute-force linear scan of
// the timestamp column on every window shape — bounds exactly on a block
// timestamp, windows over duplicate runs, before genesis, past the tip,
// inverted, and the empty chain. A processor over a store handle and one
// over the in-memory chain must then return identical bytes that verify.

#include "chain/window.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "accum/mock.h"
#include "common/rand.h"
#include "core/vchain.h"
#include "workload/datasets.h"

namespace vchain::core {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using accum::MockAcc2Engine;
using workload::DatasetGenerator;
using workload::DatasetProfile;
using Range = std::optional<std::pair<uint64_t, uint64_t>>;

Range LinearScan(const std::vector<uint64_t>& ts_col, uint64_t ts,
                 uint64_t te) {
  Range out;
  for (uint64_t h = 0; h < ts_col.size(); ++h) {
    uint64_t t = ts_col[h];
    if (t < ts || t > te) continue;
    if (!out) {
      out = {h, h};
    } else {
      out->second = h;
    }
  }
  return out;
}

/// A monotone column of `n` timestamps from 100 on, in runs of 1-4 equal
/// values separated by gaps of 0-19 (a gap of 0 merges two runs).
std::vector<uint64_t> TimestampColumn(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint64_t> col;
  uint64_t t = 100;
  while (col.size() < n) {
    size_t run = 1 + rng.Below(4);
    for (size_t i = 0; i < run && col.size() < n; ++i) col.push_back(t);
    t += rng.Below(20);
  }
  return col;
}

/// Every window shape the lookup must get right, for column `col`.
std::vector<std::pair<uint64_t, uint64_t>> Windows(
    const std::vector<uint64_t>& col, Rng* rng) {
  constexpr uint64_t kMax = ~uint64_t{0};
  std::vector<std::pair<uint64_t, uint64_t>> out = {
      {0, kMax}, {0, 0}, {kMax, kMax}, {50, 40}, {kMax, 0}};
  if (col.empty()) return out;
  const uint64_t first = col.front(), last = col.back();
  out.insert(out.end(), {{0, first - 1},
                         {0, first},
                         {last, kMax},
                         {last + 1, kMax},
                         {first, last},
                         {last, first}});
  for (uint64_t t : col) {
    // Bounds exactly on a block timestamp (a duplicate run when t repeats),
    // and just beside it.
    out.insert(out.end(), {{t, t},
                           {t, t + 7},
                           {t - 7, t},
                           {t + 1, t + 9},
                           {t - 1, t + 1},
                           {t + 1, t - 1}});
  }
  for (int i = 0; i < 200; ++i) {
    out.emplace_back(90 + rng->Below(last - 80), 90 + rng->Below(last - 80));
  }
  return out;
}

ChainConfig WalkConfig(const DatasetProfile& profile, IndexMode mode) {
  ChainConfig cfg;
  cfg.mode = mode;
  cfg.schema = profile.schema;
  cfg.skiplist_size = 2;
  return cfg;
}

/// The inclusive height range an intra-index (skip-free) VO walked: one
/// block step per height, newest first.
Range WalkedRange(const QueryResponse<MockAcc2Engine>& resp) {
  if (resp.vo.steps.empty()) return std::nullopt;
  std::vector<uint64_t> heights;
  for (const auto& step : resp.vo.steps) {
    heights.push_back(std::get<BlockVO<MockAcc2Engine>>(step).height);
  }
  for (size_t i = 1; i < heights.size(); ++i) {
    EXPECT_EQ(heights[i] + 1, heights[i - 1]) << "walk skipped a height";
  }
  return std::make_pair(heights.back(), heights.front());
}

TEST(WindowLookupTest, AllThreeMatchLinearScan) {
  auto oracle = KeyOracle::Create(/*seed=*/4, AccParams{16});
  MockAcc2Engine engine(oracle);
  DatasetProfile profile = workload::Profile4SQ(2);
  ChainConfig cfg = WalkConfig(profile, IndexMode::kIntra);
  Rng rng(77);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const size_t n = seed == 1 ? 1 : 8 * seed;
    std::vector<uint64_t> col = TimestampColumn(seed, n);

    ChainBuilder<MockAcc2Engine> miner(engine, cfg);
    DatasetGenerator gen(profile, seed);
    for (uint64_t t : col) {
      ASSERT_TRUE(miner.AppendBlock(gen.NextBlock(), t).ok());
    }
    chain::LightClient light;
    ASSERT_TRUE(miner.SyncLightClient(&light).ok());
    store::VectorBlockSource<MockAcc2Engine> source(&miner.blocks());
    QueryProcessor<MockAcc2Engine> sp(engine, cfg, &source);

    for (const auto& [ts, te] : Windows(col, &rng)) {
      const Range want = LinearScan(col, ts, te);
      const Range shared = chain::HeightRangeForWindow(
          col.size(), [&col](uint64_t h) { return col[h]; }, ts, te);
      EXPECT_EQ(shared, want) << "seed " << seed << " [" << ts << "," << te
                              << "]";
      EXPECT_EQ(light.HeightRangeForWindow(ts, te), want)
          << "seed " << seed << " [" << ts << "," << te << "]";
      auto resp = sp.TimeWindowQuery(gen.MakeDefaultQuery(ts, te));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(WalkedRange(resp.value()), want)
          << "seed " << seed << " [" << ts << "," << te << "]";
    }
  }
}

TEST(WindowLookupTest, EmptyChainSelectsNothing) {
  const std::vector<uint64_t> empty;
  auto at = [&empty](uint64_t h) { return empty.at(h); };
  EXPECT_FALSE(
      chain::HeightRangeForWindow(0, at, 0, ~uint64_t{0}).has_value());
  EXPECT_FALSE(chain::HeightRangeForWindow(0, at, 5, 5).has_value());
  chain::LightClient light;
  EXPECT_FALSE(light.HeightRangeForWindow(0, ~uint64_t{0}).has_value());

  auto oracle = KeyOracle::Create(/*seed=*/4, AccParams{16});
  MockAcc2Engine engine(oracle);
  DatasetProfile profile = workload::Profile4SQ(2);
  ChainConfig cfg = WalkConfig(profile, IndexMode::kBoth);
  std::vector<Block<MockAcc2Engine>> no_blocks;
  store::VectorBlockSource<MockAcc2Engine> source(&no_blocks);
  QueryProcessor<MockAcc2Engine> sp(engine, cfg, &source);
  DatasetGenerator gen(profile, 1);
  auto resp = sp.TimeWindowQuery(gen.MakeDefaultQuery(0, ~uint64_t{0}));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().vo.steps.empty());
  EXPECT_TRUE(resp.value().objects.empty());
}

// A processor over a store handle and one over the in-memory chain serve
// identical bytes for every window, and the verifier accepts them.
void ServeFromStoreAndMemory(const std::string& dir) {
  auto oracle = KeyOracle::Create(/*seed=*/4, AccParams{16});
  MockAcc2Engine engine(oracle);
  DatasetProfile profile = workload::Profile4SQ(5);
  ChainConfig cfg = WalkConfig(profile, IndexMode::kBoth);
  auto db = store::BlockStore::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ChainBuilder<MockAcc2Engine> miner(engine, cfg);
  ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
  DatasetGenerator gen(profile, /*seed=*/11);
  // Duplicate timestamps in runs of two.
  for (int b = 0; b < 24; ++b) {
    uint64_t ts = 1000 + static_cast<uint64_t>(b / 2) * 10;
    ASSERT_TRUE(miner.AppendBlock(gen.NextBlock(), ts).ok());
  }

  store::VectorBlockSource<MockAcc2Engine> mem_source(&miner.blocks());
  QueryProcessor<MockAcc2Engine> sp_mem(engine, cfg, &mem_source);
  store::ConcurrentStoreBlockSource<MockAcc2Engine> disk(engine,
                                                         db.value().get(), 4);
  auto handle = disk.MakeHandle();
  QueryProcessor<MockAcc2Engine> sp_disk(engine, cfg, &handle);

  chain::LightClient light;
  ASSERT_TRUE(db.value()->SyncLightClient(&light).ok());
  Verifier<MockAcc2Engine> verifier(engine, cfg, &light);

  // Windows hitting duplicate-run boundaries, partial windows, and misses.
  const std::pair<uint64_t, uint64_t> windows[] = {
      {1000, 1110}, {1005, 1052}, {1010, 1010}, {0, 999},
      {1111, 2000}, {1030, 1070}, {1000, 1000},
  };
  for (const auto& [ts, te] : windows) {
    Query q = gen.MakeDefaultQuery(ts, te);
    auto a = sp_mem.TimeWindowQuery(q);
    auto b = sp_disk.TimeWindowQuery(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ByteWriter wa, wb;
    SerializeResponse(engine, a.value(), &wa);
    SerializeResponse(engine, b.value(), &wb);
    EXPECT_EQ(wa.bytes(), wb.bytes()) << "window [" << ts << "," << te << "]";
    EXPECT_TRUE(verifier.VerifyTimeWindow(q, b.value()).ok())
        << "window [" << ts << "," << te << "]";
  }
}

TEST(WindowLookupTest, StoreHandleAndMemoryServeIdenticalBytes) {
  std::string tmpl = ::testing::TempDir() + "vchain_window_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  ServeFromStoreAndMemory(buf.data());
  std::filesystem::remove_all(buf.data());
}

}  // namespace
}  // namespace vchain::core
