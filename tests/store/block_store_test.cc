// Durable block store + BlockSource: a chain persisted to disk serves
// bit-identical query results and VO bytes after a full process restart
// (fresh BlockStore::Open, re-synced LightClient),
// mining resumes from the tip without recomputing digests, and a pruned
// miner keeps a bounded in-memory window while the on-disk chain grows.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rand.h"
#include "core/mht_baseline.h"
#include "core/vchain.h"
#include "sub/subscription.h"

namespace vchain::store {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::LightClient;
using chain::NumericSchema;
using chain::Object;
using core::Block;
using core::ChainBuilder;
using core::ChainConfig;
using core::IndexMode;
using core::Query;
using core::QueryProcessor;
using core::QueryResponse;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_store_XXXXXX";
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

ChainConfig TestConfig(IndexMode mode = IndexMode::kBoth) {
  ChainConfig config;
  config.mode = mode;
  config.schema = NumericSchema{2, 8};
  config.skiplist_size = 3;
  return config;
}

std::vector<Object> MakeObjects(Rng* rng, uint64_t base_id, size_t count,
                                const NumericSchema& schema) {
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  std::vector<Object> objects;
  for (size_t i = 0; i < count; ++i) {
    Object o;
    o.id = base_id + i;
    o.numeric = {rng->Below(schema.DomainSize()),
                 rng->Below(schema.DomainSize())};
    o.keywords = {kTypes[rng->Below(3)], kMakes[rng->Below(4)]};
    objects.push_back(std::move(o));
  }
  return objects;
}

template <typename Engine>
void Mine(ChainBuilder<Engine>* builder, size_t num_blocks,
          size_t objects_per_block, uint64_t seed, uint64_t first_height) {
  Rng rng(seed);
  uint64_t id = first_height * 1000;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto objs = MakeObjects(&rng, id, objects_per_block,
                            builder->config().schema);
    uint64_t ts = kBaseTime + (first_height + b) * kTimeStep;
    for (Object& o : objs) o.timestamp = ts;
    id += objs.size();
    auto st = builder->AppendBlock(std::move(objs), ts);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
}

Query CarQuery(uint64_t ts, uint64_t te) {
  Query q;
  q.time_start = ts;
  q.time_end = te;
  q.ranges = {{0, 10, 120}, {1, 0, 200}};
  q.keyword_cnf = {{"Sedan"}, {"Benz", "BMW"}};
  return q;
}

template <typename Engine>
Bytes ResponseBytes(const Engine& engine, const QueryResponse<Engine>& resp) {
  ByteWriter w;
  SerializeResponse(engine, resp, &w);
  return w.bytes();
}

template <typename Engine>
class BlockStoreTest : public ::testing::Test {};

using AllEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                     accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(BlockStoreTest, AllEngines);

// The tentpole acceptance criterion: a TimeWindowQuery served from a
// *reopened* on-disk store is bit-identical (results + VO bytes) to the same
// query served from the in-memory chain.
TYPED_TEST(BlockStoreTest, ReopenedStoreServesIdenticalVoBytes) {
  using Engine = TypeParam;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> miner(engine, config);
  Mine(&miner, 12, 4, /*seed=*/7, 0);

  // Attach after mining: flushes the whole existing chain, then syncs.
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    ASSERT_TRUE(db.value()->Sync().ok());
    ASSERT_EQ(db.value()->NumBlocks(), 12u);
  }  // "process exit": store closed

  // Reference: the in-memory SP.
  LightClient light;
  ASSERT_TRUE(miner.SyncLightClient(&light).ok());
  store::VectorBlockSource<Engine> mem_source(&miner.blocks());
  QueryProcessor<Engine> mem_sp(engine, config, &mem_source);
  Query q = CarQuery(kBaseTime + 2 * kTimeStep, kBaseTime + 10 * kTimeStep);
  auto mem_resp = mem_sp.TimeWindowQuery(q);
  ASSERT_TRUE(mem_resp.ok());

  // Cold start: reopen, sync a fresh light client from disk, and serve
  // through a handle on the LRU'd store source.
  BlockStore::RecoveryStats stats;
  auto db = BlockStore::Open(dir, BlockStore::Options{}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(stats.blocks, 12u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  LightClient cold_light;
  ASSERT_TRUE(db.value()->SyncLightClient(&cold_light).ok());
  EXPECT_EQ(cold_light.Height(), 12u);

  ConcurrentStoreBlockSource<Engine> source(engine, db.value().get(),
                                            /*capacity=*/4);
  auto handle = source.MakeHandle();
  QueryProcessor<Engine> disk_sp(engine, config, &handle);
  auto disk_resp = disk_sp.TimeWindowQuery(q);
  ASSERT_TRUE(disk_resp.ok());

  EXPECT_EQ(ResponseBytes(engine, disk_resp.value()),
            ResponseBytes(engine, mem_resp.value()));
  EXPECT_EQ(disk_resp.value().objects.size(), mem_resp.value().objects.size());

  // The cold light client verifies the disk-served response end to end.
  core::Verifier<Engine> verifier(engine, config, &cold_light);
  Status st = verifier.VerifyTimeWindow(q, disk_resp.value());
  EXPECT_TRUE(st.ok()) << st.ToString();

  // The walk touched more blocks than the cache holds: evictions happened,
  // yet the bytes above still matched.
  EXPECT_GT(source.cache_stats().misses, 0u);
  EXPECT_LE(source.cached_blocks(), 4u);
}

TYPED_TEST(BlockStoreTest, ResumeFromStoreContinuesMiningBitIdentically) {
  using Engine = TypeParam;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig();

  // Reference chain: 18 blocks mined in one uninterrupted process.
  ChainBuilder<Engine> reference(engine, config);
  Mine(&reference, 12, 4, /*seed=*/7, 0);
  Mine(&reference, 6, 4, /*seed=*/8, 12);

  // Interrupted chain: 12 blocks, write-through, "crash", resume, 6 more.
  {
    auto db = BlockStore::Open(dir);
    ASSERT_TRUE(db.ok());
    ChainBuilder<Engine> miner(engine, config);
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 12, 4, /*seed=*/7, 0);
    ASSERT_TRUE(db.value()->Sync().ok());
  }
  auto db = BlockStore::Open(dir);
  ASSERT_TRUE(db.ok());
  auto resumed = ChainBuilder<Engine>::ResumeFromStore(engine, config,
                                                       db.value().get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ChainBuilder<Engine>& miner = resumed.value();
  EXPECT_EQ(miner.NumBlocks(), 12u);
  Mine(&miner, 6, 4, /*seed=*/8, 12);
  ASSERT_EQ(db.value()->NumBlocks(), 18u);

  // Every header hash — which commits to every digest, index node and skip
  // entry — matches the uninterrupted reference chain.
  for (uint64_t h = 0; h < 18; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(),
              reference.blocks()[h].header.Hash())
        << "height " << h;
  }
  // And the resumed miner's light-client sync covers pruned-out heights.
  LightClient light;
  ASSERT_TRUE(miner.SyncLightClient(&light).ok());
  EXPECT_EQ(light.Height(), 18u);
}

TYPED_TEST(BlockStoreTest, PrunedMinerKeepsBoundedWindow) {
  using Engine = TypeParam;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig();

  ChainBuilder<Engine> reference(engine, config);
  Mine(&reference, 30, 3, /*seed=*/11, 0);

  auto db = BlockStore::Open(dir);
  ASSERT_TRUE(db.ok());
  ChainBuilder<Engine> miner(engine, config);
  ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
  // Max skip distance for skiplist_size=3 is 16; pruning below that must be
  // rejected, pruning at it must succeed.
  EXPECT_FALSE(miner.SetRetainWindow(8).ok());
  ASSERT_TRUE(miner.SetRetainWindow(16).ok());
  Mine(&miner, 30, 3, /*seed=*/11, 0);

  EXPECT_EQ(miner.NumBlocks(), 30u);
  EXPECT_LE(miner.blocks().size(), 16u);
  EXPECT_EQ(miner.base_height() + miner.blocks().size(), 30u);
  for (uint64_t h = 0; h < 30; ++h) {
    EXPECT_EQ(db.value()->HeaderAt(h).Hash(),
              reference.blocks()[h].header.Hash())
        << "height " << h;
  }

  // The full chain stays queryable through the store even though the miner
  // only retains a 16-block tail.
  ConcurrentStoreBlockSource<Engine> disk(engine, db.value().get(), 8);
  auto source = disk.MakeHandle();
  QueryProcessor<Engine> disk_sp(engine, config, &source);
  store::VectorBlockSource<Engine> mem_source(&reference.blocks());
  QueryProcessor<Engine> mem_sp(engine, config, &mem_source);
  Query q = CarQuery(kBaseTime, kBaseTime + 29 * kTimeStep);
  auto disk_resp = disk_sp.TimeWindowQuery(q);
  auto mem_resp = mem_sp.TimeWindowQuery(q);
  ASSERT_TRUE(disk_resp.ok());
  ASSERT_TRUE(mem_resp.ok());
  EXPECT_EQ(ResponseBytes(engine, disk_resp.value()),
            ResponseBytes(engine, mem_resp.value()));
}

TEST(BlockStoreSegmentsTest, RollsSegmentsAndReopensAcrossFiles) {
  using Engine = accum::MockAcc2Engine;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig();

  BlockStore::Options options;
  options.segment_target_bytes = 4096;  // force frequent rollover
  {
    auto db = BlockStore::Open(dir, options);
    ASSERT_TRUE(db.ok());
    ChainBuilder<Engine> miner(engine, config);
    ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
    Mine(&miner, 24, 4, /*seed=*/3, 0);
    EXPECT_GT(db.value()->NumSegments(), 1u);
    ASSERT_TRUE(db.value()->Sync().ok());
  }
  BlockStore::RecoveryStats stats;
  auto db = BlockStore::Open(dir, options, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(stats.blocks, 24u);
  EXPECT_GT(stats.segments, 1u);
  // Random access across segment boundaries decodes cleanly.
  for (uint64_t h : {0u, 7u, 13u, 23u}) {
    auto block = ReadBlockFromStore(engine, *db.value(), h);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block.value().header.height, h);
  }
}

TEST(BlockStoreSourceTest, LruCacheCountsHitsMissesEvictions) {
  using Engine = accum::MockAcc2Engine;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig(IndexMode::kIntra);

  auto db = BlockStore::Open(dir);
  ASSERT_TRUE(db.ok());
  ChainBuilder<Engine> miner(engine, config);
  ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
  Mine(&miner, 6, 2, /*seed=*/5, 0);

  ConcurrentStoreBlockSource<Engine> source(engine, db.value().get(),
                                            /*capacity=*/2);
  auto handle = source.MakeHandle();
  (void)handle.BlockAt(0);  // miss
  (void)handle.BlockAt(1);  // miss
  (void)handle.BlockAt(0);  // hit
  (void)handle.BlockAt(2);  // miss, evicts 1 (LRU)
  (void)handle.BlockAt(1);  // miss again
  EXPECT_EQ(source.cache_stats().hits, 1u);
  EXPECT_EQ(source.cache_stats().misses, 4u);
  EXPECT_EQ(source.cache_stats().evictions, 2u);
  EXPECT_EQ(source.cached_blocks(), 2u);
  // Timestamp probes never fault blocks in.
  uint64_t before = source.cache_stats().misses;
  EXPECT_EQ(handle.TimestampAt(5), kBaseTime + 5 * kTimeStep);
  EXPECT_EQ(source.cache_stats().misses, before);
}

// The subscription drain and the MHT baseline both run off the same
// disk-backed source the query processor uses.
TEST(BlockStoreSourceTest, SubscriptionDrainAndMhtBaselineFromStore) {
  using Engine = accum::MockAcc2Engine;
  std::string dir = UniqueDir();
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig(IndexMode::kIntra);

  auto db = BlockStore::Open(dir);
  ASSERT_TRUE(db.ok());
  ChainBuilder<Engine> miner(engine, config);
  ASSERT_TRUE(miner.AttachStore(db.value().get()).ok());
  Mine(&miner, 8, 3, /*seed=*/9, 0);

  ConcurrentStoreBlockSource<Engine> disk(engine, db.value().get(),
                                          /*capacity=*/2);
  auto source = disk.MakeHandle();

  sub::SubscriptionManager<Engine> subs(engine, config, {});
  Query q;
  q.keyword_cnf = {{"Sedan"}};
  ASSERT_TRUE(subs.TrySubscribe(q).ok());
  uint64_t next_height = 0;
  auto notifs = subs.ProcessNewBlocks(source, &next_height);
  EXPECT_EQ(next_height, 8u);
  EXPECT_EQ(notifs.size(), 8u);  // one per block for the single query

  // Reference: drain the same blocks from the in-memory chain.
  sub::SubscriptionManager<Engine> mem_subs(engine, config, {});
  ASSERT_TRUE(mem_subs.TrySubscribe(q).ok());
  VectorBlockSource<Engine> mem_source(&miner.blocks());
  uint64_t mem_next = 0;
  auto mem_notifs = mem_subs.ProcessNewBlocks(mem_source, &mem_next);
  ASSERT_EQ(mem_notifs.size(), notifs.size());
  for (size_t i = 0; i < notifs.size(); ++i) {
    EXPECT_EQ(notifs[i].height, mem_notifs[i].height);
    EXPECT_EQ(notifs[i].objects.size(), mem_notifs[i].objects.size());
    EXPECT_EQ(notifs[i].nodes.size(), mem_notifs[i].nodes.size());
  }

  core::MhtAdsStats disk_stats = core::BuildMhtBaseline(source, 2);
  core::MhtAdsStats mem_stats = core::BuildMhtBaseline(mem_source, 2);
  EXPECT_EQ(disk_stats.num_trees, mem_stats.num_trees);
  EXPECT_EQ(disk_stats.ads_bytes, mem_stats.ads_bytes);
  EXPECT_EQ(disk_stats.roots, mem_stats.roots);
}

TEST(BlockStoreOpenTest, RejectsForeignChainAndStaleAttach) {
  using Engine = accum::MockAcc2Engine;
  Engine engine = MakeEngine<Engine>();
  ChainConfig config = TestConfig(IndexMode::kIntra);

  std::string dir = UniqueDir();
  auto db = BlockStore::Open(dir);
  ASSERT_TRUE(db.ok());
  ChainBuilder<Engine> miner_a(engine, config);
  ASSERT_TRUE(miner_a.AttachStore(db.value().get()).ok());
  Mine(&miner_a, 4, 2, /*seed=*/1, 0);

  // A different chain cannot attach to this store.
  ChainBuilder<Engine> miner_b(engine, config);
  Mine(&miner_b, 4, 2, /*seed=*/2, 0);
  Status st = miner_b.AttachStore(db.value().get());
  EXPECT_FALSE(st.ok());

  // A store ahead of the builder is rejected (use ResumeFromStore).
  ChainBuilder<Engine> empty(engine, config);
  EXPECT_FALSE(empty.AttachStore(db.value().get()).ok());
}

}  // namespace
}  // namespace vchain::store
