#include "common/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/metrics.h"

namespace vchain::trace {

SpanTree::SpanTree(const char* root_name) : root_name_(root_name) {
  spans_.reserve(16);
  Span root;
  root.id = kRootSpan;
  root.parent = 0;
  root.name = root_name;
  root.start_ns = metrics::MonotonicNanos();
  spans_.push_back(std::move(root));
}

uint32_t SpanTree::Begin(const char* name, uint32_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<uint32_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = name;
  // Read the clock last, under the lock: the span interval then excludes
  // the Begin call's own locking cost.
  s.start_ns = metrics::MonotonicNanos();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanTree::End(uint32_t id) {
  if (id == 0) return;
  // Clock first, then lock: the interval excludes the End call's locking.
  uint64_t now = metrics::MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  spans_[id - 1].end_ns = now;
}

void SpanTree::Note(uint32_t id, const char* key, uint64_t value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  spans_[id - 1].notes.push_back(SpanNote{key, value});
}

uint64_t SpanTree::RootDurationNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.front().DurationNs();
}

size_t SpanTree::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t SpanTree::DroppedSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void SpanTree::AppendJson(std::string* out, size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t base = spans_.front().start_ns;
  out->push_back('[');
  const size_t n = std::min(spans_.size(), max_spans);
  char buf[160];
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i != 0) out->push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%" PRIu64
                  ",\"duration_ns\":%" PRIu64,
                  s.id, s.parent, s.name,
                  s.start_ns >= base ? s.start_ns - base : 0, s.DurationNs());
    out->append(buf);
    for (const SpanNote& note : s.notes) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64, note.key, note.value);
      out->append(buf);
    }
    out->push_back('}');
  }
  out->push_back(']');
}

namespace {
thread_local AmbientSpan g_ambient;
}  // namespace

AmbientSpan CurrentSpan() { return g_ambient; }

AmbientScope::AmbientScope(SpanTree* tree, uint32_t parent)
    : saved_(g_ambient) {
  g_ambient = AmbientSpan{tree, parent};
}

AmbientScope::~AmbientScope() { g_ambient = saved_; }

TraceRing::TraceRing(size_t capacity, uint64_t sample_every, size_t slow_slots)
    : capacity_(capacity < 1 ? 1 : capacity),
      sample_every_(sample_every),
      slow_slots_(slow_slots) {}

void TraceRing::Offer(std::shared_ptr<SpanTree> tree) {
  if (tree == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = offers_++;
  if (sample_every_ > 0 && seq % sample_every_ == 0) {
    recent_.push_back(Entry{tree, seq, false});
    if (recent_.size() > capacity_) recent_.pop_front();
  }
  if (slow_slots_ > 0) {
    const uint64_t dur = tree->RootDurationNs();
    if (slow_.size() < slow_slots_) {
      slow_.push_back(Entry{std::move(tree), seq, true});
    } else {
      size_t min_i = 0;
      for (size_t i = 1; i < slow_.size(); ++i) {
        if (slow_[i].tree->RootDurationNs() <
            slow_[min_i].tree->RootDurationNs()) {
          min_i = i;
        }
      }
      if (dur > slow_[min_i].tree->RootDurationNs()) {
        slow_[min_i] = Entry{std::move(tree), seq, true};
      }
    }
  }
}

std::vector<TraceRing::Entry> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out(recent_.begin(), recent_.end());
  for (const Entry& e : slow_) {
    bool dup = false;
    for (const Entry& r : recent_) {
      if (r.tree == e.tree) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(e);
  }
  return out;
}

size_t TraceRing::Occupancy() const { return Snapshot().size(); }

uint64_t TraceRing::Offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offers_;
}

std::string TraceRing::ToJson(size_t max_spans_per_tree) const {
  std::vector<Entry> entries = Snapshot();
  uint64_t offered = Offered();
  std::string out;
  out.reserve(256 + entries.size() * 512);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"offered\":%" PRIu64 ",\"occupancy\":%zu",
                offered, entries.size());
  out.append(buf);
  out.append(",\"traces\":[");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i != 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"seq\":%" PRIu64 ",\"retained\":\"%s\",\"root\":\"%s\","
                  "\"duration_ns\":%" PRIu64 ",\"dropped_spans\":%" PRIu64
                  ",\"spans\":",
                  e.seq, e.slowest ? "slowest" : "sampled",
                  e.tree->root_name(), e.tree->RootDurationNs(),
                  e.tree->DroppedSpans());
    out.append(buf);
    e.tree->AppendJson(&out, max_spans_per_tree);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

}  // namespace vchain::trace
