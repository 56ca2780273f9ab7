// api::Service — the engine-erased, thread-safe SP front door.
//
// The load-bearing property is determinism under concurrency: N threads
// hammering one Service over a disk-backed store (shared mutex-striped
// proof cache, shared decoded-block cache) must produce VO bytes
// bit-identical to a serial, typed QueryProcessor over the same chain, for
// every engine. The suite also covers the erased lifecycle: open/reopen of
// a durable service, query batching, subscriptions through the front door,
// strict query validation, and stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/query_builder.h"
#include "api/service.h"
#include "common/metrics.h"
#include "common/rand.h"
#include "core/vchain.h"

namespace vchain::api {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::LightClient;
using chain::NumericSchema;
using chain::Object;
using core::ChainBuilder;
using core::ChainConfig;
using core::IndexMode;
using core::Query;
using core::QueryProcessor;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_svc_XXXXXX";
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
Engine MakeEngine(std::shared_ptr<KeyOracle> oracle) {
  if constexpr (std::is_same_v<Engine, accum::Acc1Engine> ||
                std::is_same_v<Engine, accum::Acc2Engine>) {
    return Engine(std::move(oracle), accum::ProverMode::kTrustedFast);
  } else {
    return Engine(std::move(oracle));
  }
}

ChainConfig TestConfig(IndexMode mode = IndexMode::kBoth) {
  ChainConfig config;
  config.mode = mode;
  config.schema = NumericSchema{2, 8};
  config.skiplist_size = 3;
  return config;
}

/// Service and serial reference must share one trusted setup to be
/// byte-comparable.
std::shared_ptr<KeyOracle> TestOracle() {
  return KeyOracle::Create(/*seed=*/2026, AccParams{16});
}

template <typename Engine>
ServiceOptions BaseOptions(std::shared_ptr<KeyOracle> oracle,
                           std::string store_dir = "") {
  ServiceOptions opts;
  opts.engine = KindOf<Engine>();
  opts.config = TestConfig();
  opts.oracle = std::move(oracle);
  opts.prover_mode = accum::ProverMode::kTrustedFast;
  opts.store_dir = std::move(store_dir);
  return opts;
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

/// One deterministic stream of blocks; feed the same (seed, shape) to a
/// Service and a reference ChainBuilder and the chains are identical.
std::vector<std::vector<Object>> MakeBlocks(size_t num_blocks,
                                            size_t objects_per_block,
                                            uint64_t seed,
                                            const NumericSchema& schema) {
  Rng rng(seed);
  std::vector<std::vector<Object>> out;
  uint64_t id = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto objs = MakeObjects(&rng, id, objects_per_block, schema);
    uint64_t ts = kBaseTime + b * kTimeStep;
    for (Object& o : objs) o.timestamp = ts;
    id += objs.size();
    out.push_back(std::move(objs));
  }
  return out;
}

void AppendAll(Service* svc, const std::vector<std::vector<Object>>& blocks) {
  for (const auto& objs : blocks) {
    Status st = svc->Append(objs, objs.front().timestamp);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

/// A deterministic mixed query workload over the mined window.
std::vector<Query> TestQueries(size_t num_blocks) {
  uint64_t t_end = kBaseTime + (num_blocks - 1) * kTimeStep;
  return {
      QueryBuilder().Window(kBaseTime, t_end).Range(0, 10, 120).Build(),
      QueryBuilder()
          .Window(kBaseTime + 2 * kTimeStep, t_end - 2 * kTimeStep)
          .Range(0, 10, 120)
          .Range(1, 0, 200)
          .AllOf({"Sedan"})
          .AnyOf({"Benz", "BMW"})
          .Build(),
      QueryBuilder().Window(kBaseTime, t_end).AnyOf({"Van", "SUV"}).Build(),
      QueryBuilder()
          .Window(kBaseTime, kBaseTime)  // single block
          .Range(1, 0, 255)
          .Build(),
      QueryBuilder().Window(t_end + 1, t_end + 2).AnyOf({"Sedan"}).Build(),
      QueryBuilder()
          .Window(kBaseTime, t_end)
          .Range(0, 0, 3)  // highly selective
          .AnyOf({"Toyota"})
          .Build(),
  };
}

template <typename Engine>
Bytes SerialResponseBytes(const Engine& engine,
                          const core::QueryResponse<Engine>& resp) {
  ByteWriter w;
  core::SerializeResponse(engine, resp, &w);
  return w.bytes();
}

/// Serial ground truth: a typed ChainBuilder + QueryProcessor over the same
/// object stream and oracle, queried from one thread.
template <typename Engine>
std::vector<Bytes> SerialReference(const std::shared_ptr<KeyOracle>& oracle,
                                   const std::vector<std::vector<Object>>& bs,
                                   const std::vector<Query>& queries) {
  Engine engine = MakeEngine<Engine>(oracle);
  ChainConfig config = TestConfig();  // QueryProcessor keeps a reference
  ChainBuilder<Engine> builder(engine, config);
  for (const auto& objs : bs) {
    auto st = builder.AppendBlock(objs, objs.front().timestamp);
    EXPECT_TRUE(st.ok()) << st.status().ToString();
  }
  store::VectorBlockSource<Engine> source(&builder.blocks());
  QueryProcessor<Engine> sp(engine, config, &source);
  std::vector<Bytes> out;
  for (const Query& q : queries) {
    auto resp = sp.TimeWindowQuery(q);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    out.push_back(SerialResponseBytes(engine, resp.value()));
  }
  return out;
}

template <typename Engine>
class ServiceTest : public ::testing::Test {};

using AllEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine,
                     accum::Acc1Engine, accum::Acc2Engine>;
TYPED_TEST_SUITE(ServiceTest, AllEngines);

// The tentpole acceptance criterion: >= 8 threads hammering one disk-backed
// Service (shared striped proof cache, shared block cache small enough to
// churn) yield VO bytes bit-identical to the serial typed QueryProcessor,
// for every engine.
TYPED_TEST(ServiceTest, ConcurrentDiskQueriesBitIdenticalToSerialProcessor) {
  using Engine = TypeParam;
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 2;
  constexpr size_t kBlocks = 12;

  auto oracle = TestOracle();
  auto blocks = MakeBlocks(kBlocks, 4, /*seed=*/7, TestConfig().schema);
  auto queries = TestQueries(kBlocks);
  std::vector<Bytes> expected =
      SerialReference<Engine>(oracle, blocks, queries);

  ServiceOptions opts = BaseOptions<Engine>(oracle, UniqueDir());
  opts.config.block_cache_blocks = 4;  // far below the walk: force churn
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  AppendAll(svc.value().get(), blocks);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query so shards/cache lines are
      // hit in different orders.
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t qi = (i + t) % queries.size();
          auto result = svc.value()->Query(queries[qi]);
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (result.value().response_bytes != expected[qi]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // And the concurrent service's answers verify from headers alone.
  LightClient light;
  ASSERT_TRUE(svc.value()->SyncLightClient(&light).ok());
  auto result = svc.value()->Query(queries[1]);
  ASSERT_TRUE(result.ok());
  Status st = svc.value()->Verify(queries[1], result.value(), light);
  EXPECT_TRUE(st.ok()) << st.ToString();

  ServiceStats stats = svc.value()->Stats();
  EXPECT_EQ(stats.queries_served, kThreads * kRounds * queries.size() + 1);
  EXPECT_TRUE(stats.durable);
  EXPECT_GT(stats.block_cache.misses, 0u);
}

// Appends racing with queries: writers extend the chain past the queried
// window while 8 threads replay a fixed historical window. Every response
// must stay bit-identical to the pre-append reference — the admission-time
// height freeze means a growing tip never shifts a walk.
TYPED_TEST(ServiceTest, QueriesStayDeterministicUnderConcurrentAppends) {
  using Engine = TypeParam;
  constexpr size_t kThreads = 8;
  constexpr size_t kBlocks = 8;
  constexpr size_t kExtraBlocks = 6;

  auto oracle = TestOracle();
  auto blocks = MakeBlocks(kBlocks + kExtraBlocks, 3, /*seed=*/11,
                           TestConfig().schema);
  // Queries strictly inside the first kBlocks' window.
  std::vector<Query> queries = {
      QueryBuilder()
          .Window(kBaseTime, kBaseTime + (kBlocks - 1) * kTimeStep)
          .Range(0, 10, 120)
          .AnyOf({"Sedan", "Van"})
          .Build(),
      QueryBuilder()
          .Window(kBaseTime + kTimeStep, kBaseTime + (kBlocks - 2) * kTimeStep)
          .Range(1, 0, 200)
          .Build(),
  };
  std::vector<std::vector<Object>> first(blocks.begin(),
                                         blocks.begin() + kBlocks);
  std::vector<Bytes> expected =
      SerialReference<Engine>(oracle, first, queries);

  ServiceOptions opts = BaseOptions<Engine>(oracle, UniqueDir());
  opts.config.block_cache_blocks = 3;
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  AppendAll(svc.value().get(), first);

  // Fixed rounds on both sides — readers must NOT wait for the writer:
  // glibc's shared_mutex admits overlapping readers indefinitely, so a
  // reader loop keyed on writer progress livelocks (the writer never gets
  // the exclusive lock while readers continuously hold shared ones).
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (size_t b = kBlocks; b < kBlocks + kExtraBlocks; ++b) {
      Status st =
          svc.value()->Append(blocks[b], blocks[b].front().timestamp);
      if (!st.ok()) bad.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = 0; round < 4; ++round) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto result = svc.value()->Query(queries[(qi + t) % queries.size()]);
          if (!result.ok() ||
              result.value().response_bytes !=
                  expected[(qi + t) % queries.size()]) {
            bad.fetch_add(1);
          }
        }
        std::this_thread::yield();
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(svc.value()->NumBlocks(), kBlocks + kExtraBlocks);
}

TYPED_TEST(ServiceTest, InMemoryAndDiskServicesServeIdenticalBytes) {
  using Engine = TypeParam;
  auto oracle = TestOracle();
  auto blocks = MakeBlocks(10, 3, /*seed=*/5, TestConfig().schema);
  auto queries = TestQueries(10);

  auto mem = Service::Open(BaseOptions<Engine>(oracle));
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  auto disk = Service::Open(BaseOptions<Engine>(oracle, UniqueDir()));
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  AppendAll(mem.value().get(), blocks);
  AppendAll(disk.value().get(), blocks);

  for (const Query& q : queries) {
    auto a = mem.value()->Query(q);
    auto b = disk.value()->Query(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().response_bytes, b.value().response_bytes);
    EXPECT_EQ(a.value().vo_bytes, b.value().vo_bytes);
  }
  EXPECT_FALSE(mem.value()->Stats().durable);
  EXPECT_TRUE(disk.value()->Stats().durable);
}

// A store-backed miner keeps only the skip-construction tail of decoded
// blocks; every read past it goes through the store, with the same bytes.
TYPED_TEST(ServiceTest, StoreBackedServiceKeepsOnlySkipTail) {
  using Engine = TypeParam;
  constexpr size_t kBlocks = 64;
  auto oracle = TestOracle();
  auto blocks = MakeBlocks(kBlocks, 3, /*seed=*/21, TestConfig().schema);
  const uint64_t tail =
      ChainBuilder<Engine>(MakeEngine<Engine>(oracle), TestConfig())
          .NeededTailBlocks();
  ASSERT_LT(tail, kBlocks);

  auto mem = Service::Open(BaseOptions<Engine>(oracle));
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  auto disk = Service::Open(BaseOptions<Engine>(oracle, UniqueDir()));
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  AppendAll(mem.value().get(), blocks);
  AppendAll(disk.value().get(), blocks);

  EXPECT_EQ(mem.value()->Stats().resident_blocks, kBlocks);
  EXPECT_LE(disk.value()->Stats().resident_blocks, tail);
  EXPECT_EQ(disk.value()->NumBlocks(), kBlocks);

  auto mem_headers = mem.value()->Headers(0, kBlocks - 1);
  auto disk_headers = disk.value()->Headers(0, kBlocks - 1);
  ASSERT_TRUE(mem_headers.ok()) << mem_headers.status().ToString();
  ASSERT_TRUE(disk_headers.ok()) << disk_headers.status().ToString();
  ASSERT_EQ(disk_headers.value().size(), kBlocks);
  for (size_t h = 0; h < kBlocks; ++h) {
    EXPECT_EQ(disk_headers.value()[h].Hash(), mem_headers.value()[h].Hash())
        << "height " << h;
  }

  LightClient light;
  ASSERT_TRUE(disk.value()->SyncLightClient(&light).ok());
  for (const Query& q : TestQueries(kBlocks)) {
    auto a = mem.value()->Query(q);
    auto b = disk.value()->Query(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().response_bytes, b.value().response_bytes);
    EXPECT_TRUE(disk.value()->Verify(q, b.value(), light).ok());
  }
}

TYPED_TEST(ServiceTest, ReopenedDurableServiceResumesChain) {
  using Engine = TypeParam;
  auto oracle = TestOracle();
  std::string dir = UniqueDir();
  auto blocks = MakeBlocks(12, 3, /*seed=*/9, TestConfig().schema);
  std::vector<std::vector<Object>> first(blocks.begin(), blocks.begin() + 8);
  std::vector<std::vector<Object>> rest(blocks.begin() + 8, blocks.end());

  {
    auto svc = Service::Open(BaseOptions<Engine>(oracle, dir));
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    AppendAll(svc.value().get(), first);
    ASSERT_TRUE(svc.value()->Sync().ok());
  }  // service destroyed: "process exit"

  auto svc = Service::Open(BaseOptions<Engine>(oracle, dir));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  EXPECT_EQ(svc.value()->NumBlocks(), 8u);
  AppendAll(svc.value().get(), rest);
  EXPECT_EQ(svc.value()->NumBlocks(), 12u);

  // The resumed service's answer matches an uninterrupted in-memory one.
  auto reference = Service::Open(BaseOptions<Engine>(oracle));
  ASSERT_TRUE(reference.ok());
  AppendAll(reference.value().get(), blocks);
  Query q = TestQueries(12)[1];
  auto a = svc.value()->Query(q);
  auto b = reference.value()->Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().response_bytes, b.value().response_bytes);

  LightClient light;
  ASSERT_TRUE(svc.value()->SyncLightClient(&light).ok());
  EXPECT_TRUE(svc.value()->Verify(q, a.value(), light).ok());
}

TYPED_TEST(ServiceTest, SubscriptionEventsFlowThroughAndVerify) {
  using Engine = TypeParam;
  auto oracle = TestOracle();
  auto blocks = MakeBlocks(6, 3, /*seed=*/13, TestConfig().schema);

  auto svc = Service::Open(BaseOptions<Engine>(oracle));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  Query standing = QueryBuilder().Range(0, 0, 200).AnyOf({"Sedan"}).Build();
  auto id = svc.value()->Subscribe(standing);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  AppendAll(svc.value().get(), blocks);
  auto batch = svc.value()->EventsSince(id.value(), /*cursor=*/0,
                                        /*max_events=*/blocks.size() + 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const std::vector<SubscriptionEvent>& events = batch.value().events;
  ASSERT_EQ(events.size(), blocks.size());  // one per block for one query
  for (size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].height, i);
  EXPECT_EQ(batch.value().next_cursor, blocks.size());
  // Read again at the returned cursor: nothing is delivered twice.
  auto again_batch = svc.value()->EventsSince(id.value(),
                                              batch.value().next_cursor);
  ASSERT_TRUE(again_batch.ok());
  EXPECT_TRUE(again_batch.value().events.empty());

  LightClient light;
  ASSERT_TRUE(svc.value()->SyncLightClient(&light).ok());
  for (const SubscriptionEvent& ev : events) {
    EXPECT_EQ(ev.query_id, id.value());
    Status st = svc.value()->VerifyNotification(standing, ev, light);
    EXPECT_TRUE(st.ok()) << "height " << ev.height << ": " << st.ToString();
  }

  EXPECT_TRUE(svc.value()->Unsubscribe(id.value()).ok());
  Status again = svc.value()->Unsubscribe(id.value());
  EXPECT_TRUE(again.IsNotFound()) << again.ToString();
  // No active subscriptions: further appends log nothing.
  const uint64_t logged = svc.value()->Stats().subscription_events_pending;
  Status st = svc.value()->Append(blocks[0], blocks.back().front().timestamp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(svc.value()->Stats().subscription_events_pending, logged);
  EXPECT_TRUE(svc.value()->EventsSince(id.value(), 0).status().IsNotFound());
}

TEST(ServiceValidationTest, RejectsStructurallyInvalidQueries) {
  auto svc = Service::Open(BaseOptions<accum::MockAcc2Engine>(TestOracle()));
  ASSERT_TRUE(svc.ok());
  auto blocks = MakeBlocks(4, 3, /*seed=*/3, TestConfig().schema);
  AppendAll(svc.value().get(), blocks);

  // Inverted range.
  auto r1 = svc.value()->Query(QueryBuilder().Range(0, 50, 40).Build());
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();
  // Unknown dimension.
  auto r2 = svc.value()->Query(QueryBuilder().Range(7, 0, 10).Build());
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument());
  // Empty OR-clause.
  auto r3 = svc.value()->Query(QueryBuilder().AnyOf({}).Build());
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsInvalidArgument());
  // Out-of-domain bound (8-bit schema).
  auto r4 = svc.value()->Query(QueryBuilder().Range(0, 0, 300).Build());
  ASSERT_FALSE(r4.ok());
  EXPECT_TRUE(r4.status().IsInvalidArgument());
  // Subscriptions reject the same taxonomy.
  auto s1 = svc.value()->Subscribe(QueryBuilder().Range(0, 50, 40).Build());
  ASSERT_FALSE(s1.ok());
  EXPECT_TRUE(s1.status().IsInvalidArgument());
  // A well-formed query still flows.
  auto ok = svc.value()->Query(QueryBuilder().Range(0, 40, 50).Build());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ServiceValidationTest, OpenRejectsInconsistentOptions) {
  ServiceOptions opts = BaseOptions<accum::MockAcc2Engine>(TestOracle());
  opts.engine = static_cast<EngineKind>(0xFF);  // names no engine
  auto svc = Service::Open(std::move(opts));
  ASSERT_FALSE(svc.ok());
  EXPECT_TRUE(svc.status().IsInvalidArgument()) << svc.status().ToString();
}

TEST(ServiceBatchTest, QueryBatchMatchesIndividualQueries) {
  auto oracle = TestOracle();
  auto svc = Service::Open(BaseOptions<accum::MockAcc2Engine>(oracle));
  ASSERT_TRUE(svc.ok());
  auto blocks = MakeBlocks(10, 3, /*seed=*/17, TestConfig().schema);
  AppendAll(svc.value().get(), blocks);

  std::vector<Query> queries = TestQueries(10);
  queries.push_back(QueryBuilder().Range(0, 9, 1).Build());  // invalid
  auto batch = svc.value()->QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i + 1 < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status().ToString();
    auto solo = svc.value()->Query(queries[i]);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(batch[i].value().response_bytes, solo.value().response_bytes)
        << "query " << i;
  }
  // The malformed member fails alone; it does not poison the batch.
  EXPECT_TRUE(batch.back().status().IsInvalidArgument());
}

TEST(ServiceStatsTest, StatsTrackCachesAndEngineKind) {
  auto svc = Service::Open(BaseOptions<accum::MockAcc2Engine>(TestOracle()));
  ASSERT_TRUE(svc.ok());
  EXPECT_EQ(svc.value()->engine_kind(), EngineKind::kMockAcc2);
  EXPECT_STREQ(EngineKindName(svc.value()->engine_kind()), "mock-acc2");

  auto blocks = MakeBlocks(8, 3, /*seed=*/19, TestConfig().schema);
  AppendAll(svc.value().get(), blocks);
  Query q = TestQueries(8)[1];
  ASSERT_TRUE(svc.value()->Query(q).ok());
  ServiceStats first = svc.value()->Stats();
  EXPECT_EQ(first.num_blocks, 8u);
  EXPECT_EQ(first.queries_served, 1u);
  ASSERT_TRUE(svc.value()->Query(q).ok());
  ServiceStats second = svc.value()->Stats();
  EXPECT_EQ(second.queries_served, 2u);
  // The second identical query hits the shared proof cache.
  EXPECT_GT(second.proof_cache.hits, first.proof_cache.hits);
}

TEST(ServiceStatsTest, SubscriptionProofsGoThroughTheServiceCache) {
  auto svc = Service::Open(BaseOptions<accum::MockAcc2Engine>(TestOracle()));
  ASSERT_TRUE(svc.ok());
  // Nothing carries this keyword, so every block needs a mismatch proof.
  auto id = svc.value()->Subscribe(QueryBuilder().AnyOf({"Nowhere"}).Build());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  AppendAll(svc.value().get(),
            MakeBlocks(4, 3, /*seed=*/23, TestConfig().schema));
  // No query ran: every counted proof is a notification proof.
  ServiceStats stats = svc.value()->Stats();
  EXPECT_EQ(stats.queries_served, 0u);
  EXPECT_GT(stats.proof_cache.misses, 0u);
}

TEST(ServiceSubscriptionTest, TrimmedEventsAreRegeneratedByteIdentical) {
  // 64 subscribers x 70 blocks = 4480 events: the bounded log keeps the
  // newest kSubEventLogCapacity, so the first six blocks' events are
  // trimmed for every subscriber.
  constexpr size_t kSubscribers = 64;
  constexpr size_t kBlocks = 70;
  static_assert(kSubscribers * kBlocks > kSubEventLogCapacity);
  static_assert((kSubscribers * kBlocks - kSubEventLogCapacity) %
                    kSubscribers ==
                0);
  constexpr size_t kTrimmed =
      (kSubscribers * kBlocks - kSubEventLogCapacity) / kSubscribers;

  auto svc = Service::Open(BaseOptions<accum::MockAcc2Engine>(TestOracle()));
  ASSERT_TRUE(svc.ok());
  std::vector<Query> standing;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < kSubscribers; ++i) {
    uint64_t lo = (i * 4) % 256;
    standing.push_back(QueryBuilder()
                           .Range(0, lo, std::min<uint64_t>(lo + 40, 255))
                           .AnyOf({i % 2 == 0 ? "Sedan" : "Van"})
                           .Build());
    auto id = svc.value()->Subscribe(standing.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  // Capture subscriber 0's event for each block while the log still holds
  // it.
  auto blocks = MakeBlocks(kBlocks, 3, /*seed=*/29, TestConfig().schema);
  std::vector<Bytes> original;
  for (size_t h = 0; h < kBlocks; ++h) {
    ASSERT_TRUE(
        svc.value()->Append(blocks[h], blocks[h].front().timestamp).ok());
    auto batch = svc.value()->EventsSince(ids[0], h, 1);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.value().events.size(), 1u);
    EXPECT_EQ(batch.value().events[0].height, h);
    EXPECT_FALSE(batch.value().redelivered) << "height " << h;
    original.push_back(batch.value().events[0].notification_bytes);
  }
  EXPECT_EQ(svc.value()->Stats().subscription_events_pending,
            kSubEventLogCapacity);

  metrics::Counter* redelivered = metrics::Registry::Default().GetCounter(
      "vchain_sub_redelivered_total", "");
  const uint64_t redelivered_before = redelivered->Value();
  auto trimmed = svc.value()->EventsSince(ids[0], 0, kTrimmed);
  ASSERT_TRUE(trimmed.ok()) << trimmed.status().ToString();
  EXPECT_TRUE(trimmed.value().redelivered);
  EXPECT_EQ(trimmed.value().next_cursor, kTrimmed);
  EXPECT_EQ(redelivered->Value() - redelivered_before, kTrimmed);
  // The rest are still in the log: served as-is, nothing regenerated.
  auto logged = svc.value()->EventsSince(ids[0], kTrimmed, kBlocks);
  ASSERT_TRUE(logged.ok()) << logged.status().ToString();
  EXPECT_FALSE(logged.value().redelivered);
  EXPECT_EQ(redelivered->Value() - redelivered_before, kTrimmed);

  std::vector<SubscriptionEvent> events = trimmed.value().events;
  events.insert(events.end(), logged.value().events.begin(),
                logged.value().events.end());
  ASSERT_EQ(events.size(), kBlocks);
  LightClient light;
  ASSERT_TRUE(svc.value()->SyncLightClient(&light).ok());
  for (size_t h = 0; h < kBlocks; ++h) {
    EXPECT_EQ(events[h].height, h);
    EXPECT_EQ(events[h].notification_bytes, original[h]) << "height " << h;
    Status st = svc.value()->VerifyNotification(standing[0], events[h], light);
    EXPECT_TRUE(st.ok()) << "height " << h << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace vchain::api
