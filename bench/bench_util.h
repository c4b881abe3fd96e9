#ifndef CASPER_BENCH_BENCH_UTIL_H_
#define CASPER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace casper::bench {

/// CASPER_SCALE multiplies dataset sizes (default 1.0). CASPER_OPS overrides
/// the per-experiment operation count (default: the paper's 10000, §7).
inline double ScaleFactor() {
  const char* s = std::getenv("CASPER_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

inline size_t ScaledRows(size_t base) {
  const double scaled = static_cast<double>(base) * ScaleFactor();
  return scaled < 1024 ? 1024 : static_cast<size_t>(scaled);
}

inline size_t NumOps(size_t base = 10000) {
  const char* s = std::getenv("CASPER_OPS");
  return s != nullptr ? static_cast<size_t>(std::atoll(s)) : base;
}

/// CASPER_SMOKE=1 shrinks sweeps to one tiny iteration — the CI bench-smoke
/// job uses it to verify the bench binaries run end-to-end (and to capture a
/// JSON trajectory artifact) without full-size runtimes.
inline bool SmokeMode() {
  const char* s = std::getenv("CASPER_SMOKE");
  return s != nullptr && *s != '\0' && *s != '0';
}

/// Flat metric sink written as JSON to $CASPER_BENCH_JSON (if set) — the
/// per-PR perf-trajectory artifact uploaded by the bench-smoke CI job.
class JsonMetrics {
 public:
  void Add(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Writes {"metric": value, ...} to the CASPER_BENCH_JSON path. No-op when
  /// the variable is unset.
  void WriteIfRequested() const {
    const char* path = std::getenv("CASPER_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for bench JSON\n", path);
      return;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.6f%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %zu metrics to %s\n", metrics_.size(), path);
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("(reproduction; absolute numbers are machine-specific)\n");
  std::printf("================================================================\n");
}

inline void PrintRow(const std::string& label, double value, const char* unit) {
  std::printf("  %-28s %12.2f %s\n", label.c_str(), value, unit);
}

/// The six layouts of Fig. 12 in paper order.
inline std::vector<LayoutMode> AllLayouts() {
  return {LayoutMode::kCasper,       LayoutMode::kEquiWidthGhost,
          LayoutMode::kEquiWidth,    LayoutMode::kDeltaStore,
          LayoutMode::kSorted,       LayoutMode::kNoOrder};
}

struct BuiltWorkload {
  hap::Dataset data;
  WorkloadSpec spec;
  std::vector<Operation> training;
  std::vector<Operation> ops;
};

/// Standard experiment input: dataset + training sample + replay stream,
/// all deterministic for a given workload and size. Base rows carry
/// KeyDerivedPayload values, as the replay's inserts do, so rows with equal
/// keys are indistinguishable and every layout's checksum agrees whichever
/// duplicate it deletes or moves.
inline BuiltWorkload MakeHapExperiment(hap::Workload w, size_t rows, size_t num_ops,
                                       size_t payload_cols = 2,
                                       uint64_t seed = 1234) {
  BuiltWorkload out;
  Rng data_rng(seed);
  out.data = hap::MakeDataset(rows, payload_cols, data_rng);
  std::vector<Payload> row;
  for (size_t r = 0; r < rows; ++r) {
    KeyDerivedPayload(out.data.keys[r], payload_cols, &row);
    for (size_t c = 0; c < payload_cols; ++c) out.data.payload[c][r] = row[c];
  }
  out.spec = hap::MakeSpec(w, out.data.domain_lo, out.data.domain_hi);
  Rng train_rng(seed + 1);
  Rng run_rng(seed + 2);
  out.training = GenerateWorkload(out.spec, num_ops, train_rng);
  out.ops = GenerateWorkload(out.spec, num_ops, run_rng);
  return out;
}

/// Builds a layout of any of the six modes (Casper trains on w.training)
/// and replays the op stream; returns the harness result. The baselines are
/// not engines, so every mode goes through BuildLayout, the builder the
/// facade's partitioned modes share.
inline HarnessResult RunLayout(LayoutMode mode, const BuiltWorkload& w,
                               LayoutBuildOptions opts = LayoutBuildOptions()) {
  opts.mode = mode;
  opts.training = &w.training;
  const auto layout = BuildLayout(opts, w.data.keys, w.data.payload);
  return RunWorkload(*layout, w.ops);
}

}  // namespace casper::bench

#endif  // CASPER_BENCH_BENCH_UTIL_H_
