// Measurement helpers for vchain_perf: sample sets, the benchmark's own
// span log, the work fingerprint, the host drift probe and peak memory.
// Everything here observes the system from outside; nothing reaches into
// src/ beyond its public headers.

#ifndef VCHAIN_PERFBENCH_PERF_SUPPORT_H_
#define VCHAIN_PERFBENCH_PERF_SUPPORT_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace perf {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// One metric's samples. Percentiles use the nearest-rank rule on the
/// sorted set, so p99 over n samples leaves n/100 of them above it.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }

  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(p / 100.0 * sorted.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  double Median() const { return Percentile(50); }
  double Mean() const {
    if (values_.empty()) return 0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
           static_cast<double>(values_.size());
  }
  double Sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }

 private:
  std::vector<double> values_;
};

/// Named sample sets, one per metric; safe to fill from several threads.
class SampleBook {
 public:
  void Add(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    book_[name].Add(v);
  }
  void Merge(const std::map<std::string, Samples>& local) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, s] : local) book_[name].Append(s);
  }
  Samples Get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = book_.find(name);
    return it == book_.end() ? Samples() : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Samples> book_;
};

/// The benchmark's own spans around the public calls it makes: name,
/// start, end, parent, and one id per request. Kept in memory and written
/// out once when the run ends. Disabled (every call a no-op) outside the
/// traced run.
class SpanLog {
 public:
  /// Call before any span is recorded.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a span; returns its id (0 when disabled). `parent` 0 = a root.
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) {
    if (id == 0) return;
    uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  /// Write every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const {
    if (!enabled_) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"spans\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"parent\":%u,\"request\":%" PRIu64
                   ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}",
                   i == 0 ? "" : ",", i + 1, s.parent, s.request, s.name,
                   s.start_ns, s.end_ns);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t request;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// SHA-256 over the work a run did: response and notification bytes plus
/// the proof and cache-miss counts. Same seed, same program => same hex.
class Fingerprint {
 public:
  void AddBytes(const vchain::Bytes& b) {
    AddU64(b.size());
    sha_.Update(vchain::ByteSpan(b.data(), b.size()));
  }
  void AddHash(const vchain::crypto::Hash32& h) {
    sha_.Update(vchain::crypto::HashSpan(h));
  }
  void AddText(const std::string& s) {
    AddU64(s.size());
    sha_.Update(s);
  }
  void AddU64(uint64_t v) {
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
    sha_.Update(vchain::ByteSpan(buf, 8));
  }
  std::string Hex() { return vchain::crypto::HashToHex(sha_.Finalize()); }

 private:
  vchain::crypto::Sha256 sha_;
};

/// Fixed integer work in the benchmark's own code: the same instructions on
/// every run and every commit, so its time tracks only the host.
inline double HostRefMs() {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t t0 = NowNs();
    uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
    for (uint32_t i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x * (i | 1);
    }
    // Keep the loop observable so it cannot be folded away.
    if (acc == 42) std::fputc(' ', stderr);
    double ms = NsToMs(NowNs() - t0);
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

inline double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// `"key":<integer>` from a flat JSON object (the server's QueryTrace);
/// 0 when absent.
inline uint64_t JsonU64(const std::string& json, const char* key) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// The final result line: metrics keyed by name with their units.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  ", \"metrics\": {",
                  attempted, failed);
    out += buf;
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.first, m.second);
      out += buf;
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  std::map<std::string, std::pair<double, const char*>> metrics_;
};

}  // namespace perf

#endif  // VCHAIN_PERFBENCH_PERF_SUPPORT_H_
