// Span trees: structure, durations, notes, the ambient thread-local
// context, the kMaxSpans drop path, JSON shape, the stage fold
// (core::FoldStages) on hand-built trees, and TraceRing retention (sampled
// FIFO + always-keep-slowest). The TSan CI job runs the concurrent-writers
// case — the tree's mutex must keep several writing threads safe.

#include "common/span.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/query_trace.h"

namespace vchain::trace {
namespace {

using core::kQueryStages;
using core::StageTimes;

/// A copy of the tree's spans (WithSpans lends the live vector).
std::vector<Span> Copy(const SpanTree& t) {
  return t.WithSpans([](const std::vector<Span>& spans) { return spans; });
}

/// Spin until the monotonic clock has advanced `us` microseconds, so every
/// hand-built span has a nonzero, distinct-enough duration.
void Spin(uint64_t us) {
  const uint64_t until = metrics::MonotonicNanos() + us * 1000;
  while (metrics::MonotonicNanos() < until) {
  }
}

/// Open a span under `parent`, spin, close it; returns its id.
uint32_t Leaf(SpanTree* t, const char* name, uint32_t parent, uint64_t us) {
  uint32_t id = t->Begin(name, parent);
  Spin(us);
  t->End(id);
  return id;
}

/// Duration of span `id` in a snapshot (0 for the null span).
uint64_t Dur(const std::vector<Span>& spans, uint32_t id) {
  return id == 0 ? 0 : spans[id - 1].DurationNs();
}

/// The flat-field formula the fold replaces, over a copy of the spans: every
/// stage sums its spans by name; only inline prove (a prove span with a
/// match_walk ancestor) is subtracted, from match_walk, clamped at 0; msm
/// sums on its own; the total is the root's duration.
StageTimes ProjectionOracle(const SpanTree& t) {
  const std::vector<Span> spans = Copy(t);
  auto sum = [&](const char* name) {
    uint64_t total = 0;
    for (const Span& s : spans) {
      if (std::string(s.name) == name) total += s.DurationNs();
    }
    return total;
  };
  uint64_t inline_prove = 0;
  for (const Span& s : spans) {
    if (std::string(s.name) != "prove") continue;
    for (uint32_t p = s.parent; p != 0; p = spans[p - 1].parent) {
      if (std::string(spans[p - 1].name) == "match_walk") {
        inline_prove += s.DurationNs();
        break;
      }
    }
  }
  StageTimes out;
  for (size_t i = 0; i < core::kNumQueryStages; ++i) {
    out.stage_ns[i] = sum(kQueryStages[i]);
  }
  const int walk = core::QueryStageIndex("match_walk");
  out.stage_ns[walk] = out.stage_ns[walk] > inline_prove
                           ? out.stage_ns[walk] - inline_prove : 0;
  out.msm_ns = sum("msm");
  out.total_ns = spans.front().DurationNs();
  return out;
}

void ExpectSameStages(const StageTimes& got, const StageTimes& want) {
  for (size_t i = 0; i < core::kNumQueryStages; ++i) {
    EXPECT_EQ(got.stage_ns[i], want.stage_ns[i]) << kQueryStages[i];
  }
  EXPECT_EQ(got.msm_ns, want.msm_ns);
  EXPECT_EQ(got.total_ns, want.total_ns);
}

// Every nesting the stage fold handles: inline prove under the walk
// (subtracted from it), a prove under the root with children of an unlisted
// name (subtracted from nothing), msm under aggregate and block_read under
// the walk (both left inside their parent).
TEST(StageFoldTest, MatchesProjectionOnFullQueryShape) {
  SpanTree t("query");
  const uint32_t setup = Leaf(&t, "setup", kRootSpan, 20);
  const uint32_t window = Leaf(&t, "window_lookup", kRootSpan, 20);
  const uint32_t walk = t.Begin("match_walk");
  const uint32_t read1 = Leaf(&t, "block_read", walk, 30);
  const uint32_t inline_prove = Leaf(&t, "prove", walk, 60);
  const uint32_t read2 = Leaf(&t, "block_read", walk, 30);
  Spin(20);
  t.End(walk);
  const uint32_t agg = t.Begin("aggregate");
  const uint32_t msm = Leaf(&t, "msm", agg, 50);
  Spin(20);
  t.End(agg);
  const uint32_t deferred = t.Begin("prove");
  Leaf(&t, "prove_task", deferred, 30);
  Leaf(&t, "prove_task", deferred, 30);
  t.End(deferred);
  const uint32_t serialize = Leaf(&t, "serialize", kRootSpan, 20);
  t.EndRoot();

  const StageTimes got = core::FoldStages(t);
  ExpectSameStages(got, ProjectionOracle(t));

  const std::vector<Span> spans = Copy(t);
  auto stage = [&](const char* name) {
    return got.stage_ns[core::QueryStageIndex(name)];
  };
  EXPECT_EQ(stage("setup"), Dur(spans, setup));
  EXPECT_EQ(stage("window_lookup"), Dur(spans, window));
  // Inline prove leaves the walk; the block reads stay inside it.
  EXPECT_EQ(stage("match_walk"), Dur(spans, walk) - Dur(spans, inline_prove));
  EXPECT_GT(Dur(spans, read1) + Dur(spans, read2), 0u);
  // msm stays inside aggregate and is reported beside it.
  EXPECT_EQ(stage("aggregate"), Dur(spans, agg));
  EXPECT_EQ(got.msm_ns, Dur(spans, msm));
  EXPECT_LT(got.msm_ns, stage("aggregate"));
  // Both prove spans count; prove_task is not subtracted from the deferred.
  EXPECT_EQ(stage("prove"), Dur(spans, inline_prove) + Dur(spans, deferred));
  EXPECT_EQ(stage("serialize"), Dur(spans, serialize));
  EXPECT_EQ(got.total_ns, t.RootDurationNs());
  EXPECT_LE(got.StageSumNs(), got.total_ns);
}

// A tree that hit kMaxSpans: the inline prove span was dropped, so its time
// stays inside the walk and nothing is subtracted.
TEST(StageFoldTest, OverflowedTreeKeepsDroppedTimeInParent) {
  SpanTree t("query");
  const uint32_t walk = t.Begin("match_walk");
  while (t.NumSpans() < SpanTree::kMaxSpans) {
    t.End(t.Begin("block_read", walk));
  }
  const uint32_t dropped = Leaf(&t, "prove", walk, 50);
  EXPECT_EQ(dropped, 0u);
  t.End(walk);
  t.EndRoot();
  ASSERT_GT(t.DroppedSpans(), 0u);

  const StageTimes got = core::FoldStages(t);
  ExpectSameStages(got, ProjectionOracle(t));
  const std::vector<Span> spans = Copy(t);
  EXPECT_EQ(got.stage_ns[core::QueryStageIndex("match_walk")],
            Dur(spans, walk));
  EXPECT_EQ(got.stage_ns[core::QueryStageIndex("prove")], 0u);
  EXPECT_GE(got.stage_ns[core::QueryStageIndex("match_walk")], 50000u);
}

// A still-open walk has duration 0; its closed inline prove clamps the walk
// at 0 instead of wrapping. An open root folds to a 0 total.
TEST(StageFoldTest, OpenSpansClampAtZero) {
  SpanTree t("query");
  const uint32_t walk = t.Begin("match_walk");
  Leaf(&t, "prove", walk, 20);
  const StageTimes got = core::FoldStages(t);
  ExpectSameStages(got, ProjectionOracle(t));
  EXPECT_EQ(got.stage_ns[core::QueryStageIndex("match_walk")], 0u);
  EXPECT_GT(got.stage_ns[core::QueryStageIndex("prove")], 0u);
  EXPECT_EQ(got.total_ns, 0u);
}

// No tree, no stage times; the JSON still carries every flat key.
TEST(StageFoldTest, TraceWithoutTreeFoldsToZero) {
  core::QueryTrace trace;
  const StageTimes st = trace.Stages();
  EXPECT_EQ(st.total_ns, 0u);
  EXPECT_EQ(st.StageSumNs(), 0u);
  EXPECT_EQ(st.msm_ns, 0u);
  const std::string json = trace.ToJson();
  EXPECT_EQ(json.find("\"spans\""), std::string::npos);
  for (const char* stage : kQueryStages) {
    EXPECT_NE(json.find("\"" + std::string(stage) + "_ns\":0"),
              std::string::npos)
        << json;
  }
}

TEST(SpanTreeTest, RootAndChildren) {
  SpanTree t("query");
  EXPECT_EQ(t.NumSpans(), 1u);  // root exists from construction
  EXPECT_EQ(t.RootDurationNs(), 0u);  // open until EndRoot

  uint32_t walk = t.Begin("match_walk");
  uint32_t prove = t.Begin("prove", walk);
  t.End(prove);
  t.End(walk);
  t.EndRoot();

  EXPECT_EQ(t.NumSpans(), 3u);
  EXPECT_EQ(t.DroppedSpans(), 0u);
  std::vector<Span> spans = Copy(t);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, kRootSpan);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_STREQ(spans[0].name, "query");
  EXPECT_EQ(spans[1].parent, kRootSpan);
  EXPECT_EQ(spans[2].parent, walk);
  // Root covers its children: it started first and ended last.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
  EXPECT_GT(t.RootDurationNs(), 0u);
}

TEST(SpanTreeTest, NullIdIsNoOp) {
  SpanTree t("query");
  t.End(0);
  t.Note(0, "k", 1);
  t.End(999);  // unknown id: ignored
  EXPECT_EQ(t.NumSpans(), 1u);
}

TEST(SpanTreeTest, CapsAtMaxSpansAndCountsDrops) {
  SpanTree t("query");
  for (size_t i = 0; i < SpanTree::kMaxSpans + 10; ++i) {
    uint32_t id = t.Begin("filler");
    if (t.NumSpans() < SpanTree::kMaxSpans) EXPECT_NE(id, 0u);
    t.End(id);
  }
  EXPECT_EQ(t.NumSpans(), SpanTree::kMaxSpans);
  // Root takes one slot, so 10 + 1 Begin calls found the tree full.
  EXPECT_EQ(t.DroppedSpans(), 11u);
  // A dropped id is the null span: all operations on it are no-ops.
  uint32_t dropped = t.Begin("one_more");
  EXPECT_EQ(dropped, 0u);
  t.Note(dropped, "k", 7);
}

TEST(SpanTreeTest, JsonShapeAndNotes) {
  SpanTree t("query");
  uint32_t walk = t.Begin("match_walk");
  t.Note(walk, "blocks", 24);
  t.End(walk);
  t.EndRoot();

  std::string json;
  t.AppendJson(&json);
  // Flat array of span objects; notes ride as extra numeric members.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"match_walk\""), std::string::npos);
  EXPECT_NE(json.find("\"blocks\":24"), std::string::npos);
  // Start times are rebased to the root: the root starts at 0.
  EXPECT_NE(json.find("\"start_ns\":0"), std::string::npos);

  // max_spans truncates but stays well-formed.
  std::string capped;
  t.AppendJson(&capped, 1);
  EXPECT_EQ(capped.front(), '[');
  EXPECT_EQ(capped.back(), ']');
  EXPECT_NE(capped.find("\"name\":\"query\""), std::string::npos);
  EXPECT_EQ(capped.find("match_walk"), std::string::npos);
}

TEST(SpanTreeTest, ScopedSpanNullTreeIsNoOp) {
  ScopedSpan s(nullptr, "anything");
  EXPECT_EQ(s.id(), 0u);
  s.Note("k", 1);  // must not crash
}

TEST(SpanTreeTest, AmbientScopeInstallsAndRestores) {
  EXPECT_EQ(CurrentSpan().tree, nullptr);
  SpanTree t("query");
  {
    AmbientScope outer(&t, kRootSpan);
    EXPECT_EQ(CurrentSpan().tree, &t);
    EXPECT_EQ(CurrentSpan().parent, kRootSpan);
    uint32_t walk = t.Begin("match_walk");
    {
      AmbientScope inner(&t, walk);
      EXPECT_EQ(CurrentSpan().parent, walk);
    }
    EXPECT_EQ(CurrentSpan().parent, kRootSpan);  // restored
  }
  EXPECT_EQ(CurrentSpan().tree, nullptr);
}

TEST(SpanTreeTest, AmbientContextIsPerThread) {
  SpanTree t("query");
  AmbientScope scope(&t, kRootSpan);
  SpanTree* seen = &t;  // sentinel: overwritten by the thread
  std::thread other([&seen] { seen = CurrentSpan().tree; });
  other.join();
  EXPECT_EQ(seen, nullptr);  // the other thread saw no ambient context
}

// Several threads attach spans to one shared tree while the owning thread
// is also writing: the tree's mutex keeps it consistent. TSan-checked in CI.
TEST(SpanTreeTest, ConcurrentWritersAreSafe) {
  SpanTree t("query");
  uint32_t prove = t.Begin("prove");
  constexpr int kThreads = 8;
  constexpr int kSpansEach = 16;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, prove] {
      for (int i = 0; i < kSpansEach; ++i) {
        ScopedSpan task(&t, "task", prove);
        task.Note("iter", static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  t.End(prove);
  t.EndRoot();
  // 1 root + 1 prove + 128 tasks = 130 < kMaxSpans: nothing dropped.
  EXPECT_EQ(t.NumSpans(), 2u + kThreads * kSpansEach);
  EXPECT_EQ(t.DroppedSpans(), 0u);
  for (const Span& s : Copy(t)) {
    if (std::string(s.name) == "task") {
      EXPECT_EQ(s.parent, prove);
    }
  }
}

TEST(TraceRingTest, SamplesEveryNthAndEvictsFifo) {
  TraceRing ring(/*capacity=*/2, /*sample_every=*/2, /*slow_slots=*/0);
  for (int i = 0; i < 6; ++i) {
    auto t = std::make_shared<SpanTree>("query");
    t->EndRoot();
    ring.Offer(std::move(t));
  }
  EXPECT_EQ(ring.Offered(), 6u);
  // Offers 0, 2, 4 were sampled; capacity 2 keeps the newest two.
  std::vector<TraceRing::Entry> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(ring.Occupancy(), 2u);
  EXPECT_EQ(kept[0].seq, 2u);
  EXPECT_EQ(kept[1].seq, 4u);
  EXPECT_FALSE(kept[0].slowest);
}

TEST(TraceRingTest, KeepsSlowestRegardlessOfSampling) {
  // sample_every=0: only the slowest rule retains anything.
  TraceRing ring(/*capacity=*/4, /*sample_every=*/0, /*slow_slots=*/1);
  auto fast = std::make_shared<SpanTree>("query");
  fast->EndRoot();
  auto slow = std::make_shared<SpanTree>("query");
  // Make `slow` measurably slower than `fast` without a timing assumption.
  uint32_t busy = slow->Begin("busy");
  volatile uint64_t sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + static_cast<uint64_t>(i);
  slow->End(busy);
  slow->EndRoot();
  ASSERT_GT(slow->RootDurationNs(), fast->RootDurationNs());

  ring.Offer(slow);
  ring.Offer(fast);  // faster: must not displace `slow` from the one slot
  std::vector<TraceRing::Entry> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].tree.get(), slow.get());
  EXPECT_TRUE(kept[0].slowest);
}

TEST(TraceRingTest, ToJsonShape) {
  TraceRing ring(/*capacity=*/4, /*sample_every=*/1);
  auto t = std::make_shared<SpanTree>("append");
  t->EndRoot();
  ring.Offer(std::move(t));
  std::string json = ring.ToJson();
  EXPECT_NE(json.find("\"offered\":1"), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\":1"), std::string::npos);
  EXPECT_NE(json.find("\"root\":\"append\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
}

}  // namespace
}  // namespace vchain::trace
