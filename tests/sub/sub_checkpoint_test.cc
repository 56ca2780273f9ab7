// Subscription checkpoint durability: slot-file framing and fallback,
// torn-write tolerance through FaultInjectionEnv, lazy-run state surviving a
// snapshot/restore cycle, and service-level kill/reopen resume with the
// documented at-least-once redelivery window.

#include "sub/match/checkpoint.h"

#include <gtest/gtest.h>

#include "api/service.h"
#include "common/rand.h"
#include "core/vchain.h"
#include "store/env.h"
#include "sub/sub_verifier.h"
#include "sub/subscription.h"

namespace vchain::sub {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using api::EngineKind;
using api::Service;
using api::ServiceOptions;
using core::Query;

std::string UniqueDir() {
  std::string tmpl = ::testing::TempDir() + "vchain_subckpt_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(got);
}

Bytes Payload(std::string_view s) { return Bytes(s.begin(), s.end()); }

// --- slot files -------------------------------------------------------------

TEST(CheckpointSlotsTest, RoundtripAndSlotAlternation) {
  std::string dir = UniqueDir();
  store::Env* env = store::Env::Default();
  CheckpointSlots slots(env, dir);
  ASSERT_TRUE(slots.Open().ok());
  EXPECT_FALSE(slots.HasCheckpoint());

  ASSERT_TRUE(slots.WriteNext(Payload("one")).ok());
  ASSERT_TRUE(slots.WriteNext(Payload("two")).ok());
  ASSERT_TRUE(slots.WriteNext(Payload("three")).ok());

  // Consecutive writes alternate slots, so both files exist on disk.
  EXPECT_TRUE(env->FileExists(dir + "/" + CheckpointSlots::SlotFileName(0))
                  .value());
  EXPECT_TRUE(env->FileExists(dir + "/" + CheckpointSlots::SlotFileName(1))
                  .value());

  // A fresh instance (the restarted process) recovers the newest frame.
  CheckpointSlots reopened(env, dir);
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_TRUE(reopened.HasCheckpoint());
  EXPECT_EQ(reopened.latest_seq(), 3u);
  EXPECT_EQ(reopened.LatestPayload(), Payload("three"));
  // And continues the sequence from there.
  ASSERT_TRUE(reopened.WriteNext(Payload("four")).ok());
  EXPECT_EQ(reopened.latest_seq(), 4u);
}

TEST(CheckpointSlotsTest, CorruptLatestSlotFallsBackToPrevious) {
  std::string dir = UniqueDir();
  store::Env* env = store::Env::Default();
  CheckpointSlots slots(env, dir);
  ASSERT_TRUE(slots.Open().ok());
  ASSERT_TRUE(slots.WriteNext(Payload("good")).ok());
  ASSERT_TRUE(slots.WriteNext(Payload("newest")).ok());

  // Truncate the newest frame (seq 2 lives in slot 2 % 2 = 0) mid-payload.
  {
    auto f = env->OpenFile(dir + "/" + CheckpointSlots::SlotFileName(0));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Truncate(10).ok());
  }
  CheckpointSlots after(env, dir);
  ASSERT_TRUE(after.Open().ok());
  ASSERT_TRUE(after.HasCheckpoint());
  EXPECT_EQ(after.latest_seq(), 1u);
  EXPECT_EQ(after.LatestPayload(), Payload("good"));

  // Flip one payload byte in the remaining slot: CRC rejects it, and with
  // both slots bad there is no checkpoint (clean open, not an error).
  {
    auto f = env->OpenFile(dir + "/" + CheckpointSlots::SlotFileName(1));
    ASSERT_TRUE(f.ok());
    auto size = f.value()->Size();
    ASSERT_TRUE(size.ok());
    uint8_t last = 0;
    ASSERT_TRUE(f.value()->Read(size.value() - 1, &last, 1).ok());
    last ^= 0xff;
    ASSERT_TRUE(f.value()->Write(size.value() - 1, &last, 1).ok());
  }
  CheckpointSlots none(env, dir);
  ASSERT_TRUE(none.Open().ok());
  EXPECT_FALSE(none.HasCheckpoint());
}

TEST(CheckpointSlotsTest, TornWriteLeavesPreviousCheckpointIntact) {
  std::string dir = UniqueDir();
  FaultInjectionEnv fenv;
  CheckpointSlots slots(&fenv, dir);
  ASSERT_TRUE(slots.Open().ok());
  ASSERT_TRUE(slots.WriteNext(Payload("durable")).ok());

  // The very next write — the seq-2 frame — is torn short and fails.
  FaultInjectionEnv::Fault fault;
  fault.op = FaultInjectionEnv::Fault::Op::kWrite;
  fault.at = 1;
  fault.short_write = true;
  fenv.ScheduleFault(fault);
  EXPECT_FALSE(slots.WriteNext(Payload("torn-and-lost")).ok());
  fenv.ClearFault();

  // Recovery ignores the torn slot and resumes from the survivor.
  CheckpointSlots after(&fenv, dir);
  ASSERT_TRUE(after.Open().ok());
  ASSERT_TRUE(after.HasCheckpoint());
  EXPECT_EQ(after.latest_seq(), 1u);
  EXPECT_EQ(after.LatestPayload(), Payload("durable"));
}

// --- lazy-run state round-trips through the payload serde -------------------

TEST(CheckpointSnapshotTest, LazyRunSurvivesSerializedRestore) {
  auto oracle = KeyOracle::Create(404, AccParams{14});
  accum::MockAcc2Engine engine(oracle);
  core::ChainConfig config;
  config.mode = core::IndexMode::kBoth;
  config.schema = NumericSchema{2, 6};
  config.skiplist_size = 2;
  core::ChainBuilder<accum::MockAcc2Engine> builder(engine, config);
  chain::LightClient light;

  typename SubscriptionManager<accum::MockAcc2Engine>::Options opts;
  opts.lazy = true;
  SubscriptionManager<accum::MockAcc2Engine> mgr(engine, config, opts);
  Query q;
  q.ranges = {{0, 0, 15}, {1, 0, 15}};
  q.keyword_cnf = {{"hit"}};
  uint32_t qid = mgr.TrySubscribe(q).TakeValue();

  // Mine silent blocks so a lazy run with pending units is in flight.
  Rng rng(11);
  uint64_t next_id = 0;
  auto mine = [&](size_t n, bool matches) {
    for (size_t b = 0; b < n; ++b) {
      std::vector<chain::Object> objs;
      for (int i = 0; i < 3; ++i) {
        chain::Object o;
        o.id = next_id++;
        o.timestamp = 5000 + builder.blocks().size() * 10;
        if (matches && i == 0) {
          o.numeric = {rng.Below(16), rng.Below(16)};
          o.keywords = {"hit"};
        } else {
          o.numeric = {16 + rng.Below(48), 16 + rng.Below(48)};
          o.keywords = {"red"};
        }
        objs.push_back(std::move(o));
      }
      ASSERT_TRUE(
          builder.AppendBlock(std::move(objs), 5000 + builder.blocks().size() * 10)
              .ok());
    }
    ASSERT_TRUE(builder.SyncLightClient(&light).ok());
  };
  mine(6, false);
  uint64_t owed = 0;
  SubVerifier<accum::MockAcc2Engine> verifier(engine, config, &light);
  for (const auto& block : builder.blocks()) {
    for (const auto& batch : mgr.ProcessBlockLazy(block)) {
      uint64_t next = 0;
      ASSERT_TRUE(verifier.VerifyLazyBatch(q, batch, owed, &next).ok());
      owed = next;
    }
  }

  // Checkpoint: snapshot -> payload bytes -> fresh manager ("new process").
  ByteWriter w;
  SerializeSubCheckpoint(engine, builder.blocks().size(), mgr.Snapshot(), &w);
  uint64_t next_height = 0;
  SubscriptionSnapshot<accum::MockAcc2Engine> snap;
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  ASSERT_TRUE(DeserializeSubCheckpoint(engine, &r, &next_height, &snap).ok());
  EXPECT_EQ(next_height, builder.blocks().size());
  ASSERT_EQ(snap.queries.size(), 1u);
  EXPECT_EQ(snap.queries[0].id, qid);
  ASSERT_EQ(snap.lazy.size(), 1u);  // the silent run is mid-flight

  SubscriptionManager<accum::MockAcc2Engine> restored(engine, config, opts);
  ASSERT_TRUE(restored.Restore(snap).ok());
  EXPECT_EQ(restored.NumActive(), 1u);

  // The restored run continues verifiably: new blocks extend the pending
  // evidence and the final flush accounts for every height since genesis.
  mine(3, false);
  mine(1, true);
  for (size_t h = next_height; h < builder.blocks().size(); ++h) {
    for (const auto& batch : restored.ProcessBlockLazy(builder.blocks()[h])) {
      uint64_t next = 0;
      Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
      ASSERT_TRUE(st.ok()) << st.ToString();
      owed = next;
    }
  }
  for (const auto& batch : restored.FlushAll()) {
    uint64_t next = 0;
    Status st = verifier.VerifyLazyBatch(q, batch, owed, &next);
    ASSERT_TRUE(st.ok()) << st.ToString();
    owed = next;
  }
  EXPECT_EQ(owed, builder.blocks().size());

  // A truncated payload is Corruption, never a partial restore.
  ByteReader torn(ByteSpan(w.bytes().data(), w.bytes().size() / 2));
  EXPECT_FALSE(
      DeserializeSubCheckpoint(engine, &torn, &next_height, &snap).ok());
}

// --- service-level kill / reopen --------------------------------------------

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kStep = 10;

ServiceOptions CkptOptions(std::shared_ptr<KeyOracle> oracle, std::string dir) {
  ServiceOptions opts;
  opts.engine = EngineKind::kMockAcc2;
  opts.config.schema = NumericSchema{2, 6};
  opts.config.skiplist_size = 2;
  opts.oracle = std::move(oracle);
  opts.store_dir = std::move(dir);
  return opts;
}

Query MatchAllishQuery() {
  Query q;
  q.keyword_cnf = {{"hit"}};
  return q;
}

void AppendBlocks(Service* svc, size_t n, uint64_t* height) {
  for (size_t b = 0; b < n; ++b) {
    std::vector<chain::Object> objs;
    chain::Object o;
    o.id = *height * 10;
    o.timestamp = kBaseTime + *height * kStep;
    o.numeric = {1, 2};
    o.keywords = {"hit"};
    objs.push_back(std::move(o));
    ASSERT_TRUE(svc->Append(std::move(objs), kBaseTime + *height * kStep).ok());
    ++*height;
  }
}

TEST(ServiceCheckpointTest, KilledAndRestartedServiceResumesSubscriptions) {
  auto oracle = KeyOracle::Create(2026, AccParams{14});
  std::string dir = UniqueDir();
  uint64_t height = 0;
  uint32_t qid = 0;
  {
    auto svc = Service::Open(CkptOptions(oracle, dir));
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    auto id = svc.value()->Subscribe(MatchAllishQuery());
    ASSERT_TRUE(id.ok());
    qid = id.value();
    AppendBlocks(svc.value().get(), 3, &height);
    auto batch = svc.value()->EventsSince(qid, 0);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.value().events.size(), 3u);
    ASSERT_TRUE(svc.value()->Sync().ok());
    EXPECT_GT(svc.value()->Stats().sub_checkpoint_seq, 0u);
  }  // process killed

  auto svc = Service::Open(CkptOptions(oracle, dir));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  auto stats = svc.value()->Stats();
  EXPECT_EQ(stats.num_blocks, 3u);
  EXPECT_EQ(stats.subscriptions_active, 1u);  // resumed, not re-subscribed
  EXPECT_GT(stats.sub_checkpoint_seq, 0u);
  // The checkpoint covered every drained block: nothing is re-drained into
  // the event log.
  EXPECT_EQ(stats.subscription_events_pending, 0u);

  // The resumed subscription keeps notifying under its original id, and the
  // notifications verify against headers like any others.
  AppendBlocks(svc.value().get(), 1, &height);
  auto batch = svc.value()->EventsSince(qid, /*cursor=*/3);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto& events = batch.value().events;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, qid);
  EXPECT_EQ(events[0].height, 3u);
  chain::LightClient light;
  ASSERT_TRUE(svc.value()->SyncLightClient(&light).ok());
  EXPECT_TRUE(svc.value()
                  ->VerifyNotification(MatchAllishQuery(), events[0], light)
                  .ok());
  // Unsubscribing the restored id works (ids survived the restart).
  EXPECT_TRUE(svc.value()->Unsubscribe(qid).ok());
}

TEST(ServiceCheckpointTest, StaleCheckpointRedeliversAtLeastOnce) {
  auto oracle = KeyOracle::Create(2027, AccParams{14});
  std::string dir = UniqueDir();
  uint64_t height = 0;
  uint32_t qid = 0;
  {
    ServiceOptions opts = CkptOptions(oracle, dir);
    opts.sub_checkpoint_interval_blocks = 0;  // checkpoint only at (un)sub/Sync
    auto svc = Service::Open(std::move(opts));
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    auto id = svc.value()->Subscribe(MatchAllishQuery());  // ckpt @ 0
    ASSERT_TRUE(id.ok());
    qid = id.value();
    AppendBlocks(svc.value().get(), 4, &height);
    auto batch = svc.value()->EventsSince(qid, 0);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.value().events.size(), 4u);
    ASSERT_TRUE(svc.value()->Sync().ok());  // ckpt @ 4 (the newest slot)
  }

  // Tear the newest checkpoint on "disk": recovery must fall back to the
  // subscribe-time checkpoint, whose drain cursor is still at height 0.
  {
    store::Env* env = store::Env::Default();
    CheckpointSlots probe(env, dir);
    ASSERT_TRUE(probe.Open().ok());
    ASSERT_TRUE(probe.HasCheckpoint());
    int newest_slot = static_cast<int>(probe.latest_seq() % 2);
    auto f = env->OpenFile(dir + "/" +
                           CheckpointSlots::SlotFileName(newest_slot));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Truncate(7).ok());
  }

  ServiceOptions opts = CkptOptions(oracle, dir);
  opts.sub_checkpoint_interval_blocks = 0;
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  EXPECT_EQ(svc.value()->Stats().subscriptions_active, 1u);
  // At-least-once: all four already-published blocks are re-drained into the
  // event log (the subscriber dedups by (query_id, height)); none is skipped.
  EXPECT_EQ(svc.value()->Stats().subscription_events_pending, 4u);
  auto batch = svc.value()->EventsSince(qid, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto& events = batch.value().events;
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].height, i);
    EXPECT_FALSE(events[i].notification_bytes.empty());
  }
  // Delivery continues exactly where the chain tip is.
  AppendBlocks(svc.value().get(), 1, &height);
  auto next = svc.value()->EventsSince(qid, batch.value().next_cursor);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next.value().events.size(), 1u);
  EXPECT_EQ(next.value().events[0].height, 4u);
}

TEST(ServiceCheckpointTest, TornSubscribeCheckpointFallsBackToLastDurable) {
  auto oracle = KeyOracle::Create(2028, AccParams{14});
  std::string dir = UniqueDir();
  FaultInjectionEnv fenv;
  uint64_t height = 0;
  uint32_t q1 = 0;
  {
    ServiceOptions opts = CkptOptions(oracle, dir);
    opts.store_options.env = &fenv;
    opts.sub_checkpoint_interval_blocks = 0;
    auto svc = Service::Open(std::move(opts));
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    auto id = svc.value()->Subscribe(MatchAllishQuery());
    ASSERT_TRUE(id.ok());
    q1 = id.value();
    AppendBlocks(svc.value().get(), 2, &height);
    ASSERT_TRUE(svc.value()->Sync().ok());  // q1 durable at height 2

    // The second Subscribe's checkpoint write (the very next write through
    // the env) is torn. Subscribe itself stays best-effort-ok — the standing
    // query lives in memory — but the slot on disk is garbage.
    FaultInjectionEnv::Fault fault;
    fault.op = FaultInjectionEnv::Fault::Op::kWrite;
    fault.at = 1;
    fault.short_write = true;
    fenv.ScheduleFault(fault);
    auto q2 = svc.value()->Subscribe(MatchAllishQuery());
    ASSERT_TRUE(q2.ok());
    fenv.ClearFault();
    EXPECT_EQ(svc.value()->Stats().subscriptions_active, 2u);
  }  // crash before the second subscription ever became durable

  ServiceOptions opts = CkptOptions(oracle, dir);
  opts.store_options.env = &fenv;
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  // Recovery lands on the last durable checkpoint: one subscription, cursor
  // already at the tip (no replay window).
  auto stats = svc.value()->Stats();
  EXPECT_EQ(stats.subscriptions_active, 1u);
  EXPECT_EQ(stats.subscription_events_pending, 0u);
  AppendBlocks(svc.value().get(), 1, &height);
  auto batch = svc.value()->EventsSince(q1, /*cursor=*/2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().events.size(), 1u);
}

TEST(ServiceCheckpointTest, PeriodicIntervalBoundsReplayWindow) {
  auto oracle = KeyOracle::Create(2029, AccParams{14});
  std::string dir = UniqueDir();
  ServiceOptions opts = CkptOptions(oracle, dir);
  opts.sub_checkpoint_interval_blocks = 2;
  auto svc = Service::Open(std::move(opts));
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  ASSERT_TRUE(svc.value()->Subscribe(MatchAllishQuery()).ok());  // seq 1
  uint64_t seq_after_subscribe = svc.value()->Stats().sub_checkpoint_seq;
  EXPECT_GE(seq_after_subscribe, 1u);
  uint64_t height = 0;
  AppendBlocks(svc.value().get(), 5, &height);
  // Two periodic checkpoints fired (after 2 and 4 drained blocks) without
  // any Sync or subscribe in between.
  EXPECT_GE(svc.value()->Stats().sub_checkpoint_seq, seq_after_subscribe + 2);
}

}  // namespace
}  // namespace vchain::sub
