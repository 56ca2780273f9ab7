// Causal span trees + the retention ring behind the introspection plane.
//
// A SpanTree is one request's wall-time decomposition as a tree: every span
// has an id, a parent id, a static name, a monotonic [start, end) interval,
// and optional numeric key=value notes. The query path builds one tree per
// traced request (core::QueryTrace owns the pointer). The tree is the only
// timing record: per-stage times are folded from it by span name on demand
// (core::FoldStages, over WithSpans), so the stage histograms, the
// slow-query warn log, the X-Vchain-Trace header, and GET /debug/traces all
// read the same single measurement.
//
// Concurrency: a tree is written by the one thread serving its request, but
// finished trees are shared (the trace ring behind GET /debug/traces reads
// them from HTTP workers), so every method takes the tree's mutex. The lock
// is uncontended in the common case (one writer) and each operation is a
// few stores — tens of nanoseconds against milliseconds of proving (the ≤3%
// overhead bound is asserted by bench_query_stages' traced-vs-untraced
// column).
//
// Span names and note keys must be string literals (static storage): spans
// store the pointer, never a copy, which keeps Begin/End allocation-free
// apart from vector growth up to kMaxSpans.
//
// TraceRing is the retention policy for finished trees: a bounded FIFO of
// every sample_every-th offered tree plus a small always-keep-slowest set,
// so both "what does a typical query look like" and "what did the tail do"
// stay answerable from a live server (GET /debug/traces).

#ifndef VCHAIN_COMMON_SPAN_H_
#define VCHAIN_COMMON_SPAN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vchain::trace {

/// The root span's id in every tree (created by the SpanTree constructor;
/// parent 0 means "no parent").
inline constexpr uint32_t kRootSpan = 1;

struct SpanNote {
  const char* key;  ///< static literal
  uint64_t value;
};

struct Span {
  uint32_t id = 0;      ///< 1-based; 0 is the null span
  uint32_t parent = 0;  ///< 0 only for the root
  const char* name = "";
  uint64_t start_ns = 0;  ///< metrics::MonotonicNanos at Begin
  uint64_t end_ns = 0;    ///< 0 while the span is still open
  std::vector<SpanNote> notes;

  uint64_t DurationNs() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// One request's span tree. Thread-safe; bounded at kMaxSpans (further
/// Begin calls return the null span and bump dropped()).
class SpanTree {
 public:
  /// Spans a tree will hold at most. Generous for a query (≈6 stage spans
  /// plus per-miss block reads and per-proof spans); a pathological cold
  /// walk degrades to dropped-span accounting instead of unbounded memory.
  static constexpr size_t kMaxSpans = 256;

  /// Creates the root span (id kRootSpan) with `root_name`, started now.
  explicit SpanTree(const char* root_name);

  SpanTree(const SpanTree&) = delete;
  SpanTree& operator=(const SpanTree&) = delete;

  /// Open a child of `parent` named `name` (a string literal). Returns the
  /// new span id, or 0 when the tree is full (every Span method accepts 0
  /// as a no-op id).
  uint32_t Begin(const char* name, uint32_t parent = kRootSpan);

  /// Close `id` (no-op for 0 or an unknown id).
  void End(uint32_t id);

  /// Attach a numeric note to `id`. `key` must be a string literal.
  void Note(uint32_t id, const char* key, uint64_t value);

  /// Close the root span; call exactly once, after the request finished.
  void EndRoot() { End(kRootSpan); }

  const char* root_name() const { return root_name_; }
  /// Root span wall time; 0 until EndRoot.
  uint64_t RootDurationNs() const;

  size_t NumSpans() const;
  uint64_t DroppedSpans() const;

  /// Run `fn(spans)` under the tree's lock and return its result: a read
  /// of the live spans (spans[i].id == i + 1, root first) with no copy.
  /// `fn` must not call back into this tree.
  template <typename Fn>
  auto WithSpans(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return fn(static_cast<const std::vector<Span>&>(spans_));
  }

  /// Append the spans as a JSON array to `*out`: single-line ASCII (header
  /// safe), start/end rebased to the root's start. At most `max_spans` are
  /// emitted (the root always first); the caller can read DroppedSpans()
  /// plus the emitted count against NumSpans() to detect truncation. Names
  /// and note keys are literals under our control, so no string escaping.
  void AppendJson(std::string* out, size_t max_spans = kMaxSpans) const;

 private:
  const char* root_name_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[i].id == i + 1
  uint64_t dropped_ = 0;
};

/// RAII Begin/End. `tree` may be null (whole object is a no-op), so call
/// sites stay unconditional.
class ScopedSpan {
 public:
  ScopedSpan(SpanTree* tree, const char* name, uint32_t parent = kRootSpan)
      : tree_(tree), id_(tree != nullptr ? tree->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (tree_ != nullptr) tree_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  void Note(const char* key, uint64_t value) {
    if (tree_ != nullptr) tree_->Note(id_, key, value);
  }

 private:
  SpanTree* tree_;
  uint32_t id_;
};

/// Ambient (thread-local) span context, for layers that sit under an
/// instrumented caller but have no trace parameter in their interface —
/// the store's block-read path, the subscription drain inside Append. The
/// instrumented caller installs an AmbientScope; deeper code reads
/// CurrentSpan() and attaches children if a tree is active.
struct AmbientSpan {
  SpanTree* tree = nullptr;
  uint32_t parent = 0;
};

AmbientSpan CurrentSpan();

class AmbientScope {
 public:
  AmbientScope(SpanTree* tree, uint32_t parent);
  ~AmbientScope();
  AmbientScope(const AmbientScope&) = delete;
  AmbientScope& operator=(const AmbientScope&) = delete;

 private:
  AmbientSpan saved_;
};

/// Retention ring for finished trees: keeps every `sample_every`-th offered
/// tree (FIFO of `capacity`) plus the `slow_slots` slowest by root duration.
/// Offer() is called once per finished request; Snapshot/ToJson serve
/// GET /debug/traces.
class TraceRing {
 public:
  /// `sample_every` = 0 disables sampled retention (only the slowest set is
  /// kept); 1 retains every offer until FIFO eviction.
  TraceRing(size_t capacity, uint64_t sample_every, size_t slow_slots = 8);

  void Offer(std::shared_ptr<SpanTree> tree);

  struct Entry {
    std::shared_ptr<SpanTree> tree;
    uint64_t seq = 0;      ///< 0-based offer sequence number
    bool slowest = false;  ///< retained by the slowest rule (else sampled)
  };

  /// Retained entries, oldest first, sampled before slowest-only.
  std::vector<Entry> Snapshot() const;

  /// Trees currently retained (a tree held by both rules counts once).
  size_t Occupancy() const;
  /// Total trees ever offered.
  uint64_t Offered() const;

  /// {"offered":N,"occupancy":N,"traces":[...]} — single-line ASCII.
  std::string ToJson(size_t max_spans_per_tree = SpanTree::kMaxSpans) const;

 private:
  const size_t capacity_;
  const uint64_t sample_every_;
  const size_t slow_slots_;
  mutable std::mutex mu_;
  uint64_t offers_ = 0;
  std::deque<Entry> recent_;
  std::vector<Entry> slow_;  // unordered; evict current minimum on overflow
};

}  // namespace vchain::trace

#endif  // VCHAIN_COMMON_SPAN_H_
