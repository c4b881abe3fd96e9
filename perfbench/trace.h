// Span recorder for the traced run. The benchmark opens a span around each
// call it makes into a layer's public functions; spans stay in memory until
// the run ends, when they are written out and folded into per-name totals.
// A span's self time is its duration minus the union of its children's
// intervals, so children that ran in parallel are not counted twice.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int kNone = -1;

  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = kNone;
    uint64_t op = 0;  ///< id of the benchmark step the span belongs to
  };

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    /// Duration minus the union of the children's intervals.
    int64_t self_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (kNone when tracing is off). Safe from any
  /// thread.
  int Begin(const char* name, int parent, uint64_t op) {
    if (!enabled_) return kNone;
    Span s;
    s.name = name;
    s.parent = parent;
    s.op = op;
    std::lock_guard<std::mutex> lock(mu_);
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int id) {
    if (id == kNone) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Per-name totals over every recorded span.
  std::map<std::string, Totals> Fold() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, Totals> out;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t dur = s.end_ns - s.start_ns;
      iv.clear();
      for (const size_t c : children[i]) {
        iv.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
      }
      Totals& t = out[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - Covered(&iv);
    }
    return out;
  }

  /// One line per span: id, name, start, end (relative to the first span),
  /// parent id, step id.
  bool WriteCsv(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,op\n");
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Length of the union of the intervals (sorted in place).
  static int64_t Covered(std::vector<std::pair<int64_t, int64_t>>* iv) {
    std::sort(iv->begin(), iv->end());
    int64_t covered = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    bool open = false;
    for (const auto& [s, e] : *iv) {
      if (open && s <= hi) {
        hi = std::max(hi, e);
        continue;
      }
      if (open) covered += hi - lo;
      lo = s;
      hi = e;
      open = true;
    }
    if (open) covered += hi - lo;
    return covered;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span; a no-op when tracing is off.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = Tracer::kNone,
            uint64_t op = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
