#ifndef CASPER_ENGINE_HARNESS_H_
#define CASPER_ENGINE_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "layouts/layout_engine.h"
#include "util/latency_recorder.h"
#include "workload/ops.h"

namespace casper {

class PartitionedLayout;
class ThreadPool;

/// Outcome of replaying an operation stream against a layout engine:
/// wall-clock throughput plus per-operation-class latency distributions
/// (the measurements behind Figs. 12, 13, 14, 15, 16).
struct HarnessResult {
  size_t ops = 0;
  double seconds = 0.0;
  /// XOR/rolling checksum over query results; defeats dead-code elimination
  /// and doubles as a cross-layout correctness probe (all layouts must agree
  /// when replaying the same stream over the same data).
  uint64_t checksum = 0;
  std::array<LatencyRecorder, kNumOpKinds> latency;

  double ThroughputOpsPerSec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }
  LatencyRecorder& Rec(OpKind k) { return latency[static_cast<size_t>(k)]; }
  const LatencyRecorder& Rec(OpKind k) const {
    return latency[static_cast<size_t>(k)];
  }
};

struct HarnessOptions {
  /// Record per-op latency (tiny overhead; disable for pure throughput).
  bool record_latency = true;
  /// Pool for RunWorkloadMixed (RunWorkload is always serial). Results —
  /// including the checksum — are identical to the serial replay.
  ThreadPool* pool = nullptr;
};

/// Replays `ops` sequentially against `engine`, one operation at a time
/// through one OperationInterpreter — the per-operation replay the paper's
/// figures time on every layout, and the serial reference every parallel
/// path is checked against. Inserts take KeyDerivedPayload rows, so
/// duplicate-key rows are indistinguishable and layouts that delete
/// different physical duplicates still produce identical checksums. Point
/// reads count their matches without copying a payload out, and range
/// aggregates sum DefaultSumColumns(engine).
HarnessResult RunWorkload(LayoutEngine& engine, const std::vector<Operation>& ops,
                          const HarnessOptions& options);
HarnessResult RunWorkload(LayoutEngine& engine, const std::vector<Operation>& ops);

/// Replays a stream of any mix (read-only, write-only, or interleaved)
/// through the MixedWorkloadRunner on options.pool: reads overlap each other
/// and ingest, and chunk-disjoint writes commit in parallel, ordered only
/// where their chunk footprints conflict. The checksum is bit-identical to
/// RunWorkload over the same stream. Per-op latency is not recorded
/// (operations overlap).
HarnessResult RunWorkloadMixed(PartitionedLayout& engine,
                               const std::vector<Operation>& ops,
                               const HarnessOptions& options);

/// Pretty one-line summary: throughput + mean latency per present op class.
std::string FormatResult(const HarnessResult& r);

}  // namespace casper

#endif  // CASPER_ENGINE_HARNESS_H_
