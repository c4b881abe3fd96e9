#ifndef CASPER_MAINTENANCE_LAYOUT_MAINTENANCE_H_
#define CASPER_MAINTENANCE_LAYOUT_MAINTENANCE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "exec/scan_spec.h"
#include "model/frequency_model.h"
#include "optimizer/layout_planner.h"
#include "storage/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "workload/ops.h"

namespace casper {

class PartitionedLayout;
class PartitionedTable;

/// Knobs for the online adaptive re-layout loop (EngineOptions::maintenance).
struct MaintenanceOptions {
  /// Master switch. Disabled engines never observe traffic and never mutate
  /// their layout.
  bool enabled = false;

  /// Run cycles from a background thread every capture_interval. When false
  /// the service only advances when RunCycle() is called explicitly — the
  /// deterministic mode that tests and benches drive.
  bool background = false;
  std::chrono::milliseconds capture_interval{250};

  /// Exponential decay applied to the live frequency model each cycle
  /// (live = live * decay + fresh): 1.0 never forgets, 0.0 sees only the
  /// last interval. Drift detection wants the middle — old traffic ages out
  /// over a few cycles.
  double decay = 0.5;

  /// Re-partition a chunk only when the cost model predicts at least this
  /// fractional improvement over the current layout under the live mix
  /// (benefit / current_cost), AND the absolute benefit exceeds the
  /// re-partition's own data-movement cost (one sequential rewrite of the
  /// chunk) — the amortization gate.
  double divergence_threshold = 0.10;

  /// Per-cycle cap on re-partitioned chunks: bounds the exclusive-latch work
  /// a single cycle injects under live traffic. The most-active diverged
  /// chunks go first; the rest wait for the next cycle.
  size_t max_chunks_per_cycle = 1;

  /// Cycles that find fewer buffered operations than this are skipped and
  /// leave them buffered for the next cycle (noise gate: don't re-solve
  /// layouts off a handful of requests).
  size_t min_cycle_ops = 32;
};

/// What one maintenance cycle did (RunCycle's return; lifetime totals in
/// MaintenanceStats). The *_ns fields split the cycle's wall time by stage
/// (class comment): capture, solve (pricing plus re-solve) and re-partition.
struct MaintenanceCycleReport {
  size_t ops_captured = 0;
  size_t chunks_evaluated = 0;
  size_t chunks_repartitioned = 0;
  uint64_t capture_ns = 0;
  uint64_t solve_ns = 0;
  uint64_t repartition_ns = 0;
};

/// Lifetime counters, readable from any thread.
struct MaintenanceStats {
  uint64_t cycles = 0;
  uint64_t ops_observed = 0;
  uint64_t ops_dropped = 0;
  uint64_t chunks_evaluated = 0;
  uint64_t chunks_repartitioned = 0;
  uint64_t capture_ns = 0;
  uint64_t solve_ns = 0;
  uint64_t repartition_ns = 0;
};

/// The fresh per-chunk models of one cycle's observed ops.
struct CycleCapture {
  std::vector<size_t> chunks;          ///< non-empty chunks, ascending
  std::vector<size_t> rows;            ///< live rows of each
  std::vector<FrequencyModel> models;  ///< fresh model of each
};

/// The cycle's capture step (class comment, (a)): the models WorkloadCapture
/// builds for `ops` over the table's live keys, equal to a capture over a
/// sorted copy of them. Only the distinct keys the ops name are ranked, one
/// shared-latch PartitionedTable::RankKeysInChunk pass per chunk they route
/// to; every other chunk gives its row count alone, so an evicted chunk's
/// file is read only when an op routes into it. Empty when the table is.
CycleCapture CaptureCycle(const PartitionedTable& table,
                          const std::vector<Operation>& ops,
                          size_t block_values);

/// Online adaptive re-layout: the background maintenance service owned by
/// CasperEngine. The solver otherwise runs exactly once at Open, so the
/// layout it proves optimal for the training sample silently decays as the
/// production workload drifts. This service closes the loop:
///
///  (a) Capture — query/write paths feed their operations to Observe(); each
///      cycle drains the buffer and runs WorkloadCapture over the drained
///      traffic (CaptureCycle). Keys are placed by their exact rank among
///      the live keys, taken from partition geometry in one shared-latch
///      pass per chunk the ops touch; no key is copied or sorted, and a cold
///      chunk no op touches is never read. The fresh per-chunk
///      FrequencyModels fold into decayed live models (Scale + Merge,
///      Rescale when a chunk's block count moved).
///  (b) Detect — per active chunk, the cost model prices the CURRENT
///      partitioning under the live mix and LayoutPlanner re-solves for the
///      best one; a chunk diverges when the predicted benefit clears both
///      the fractional threshold and the amortized re-partition cost.
///  (c) Re-partition — diverged chunks are rebuilt ONE AT A TIME through
///      PartitionedTable::RepartitionChunk, each under its own exclusive
///      chunk latch while queries keep flowing on every other chunk, the
///      same hold a write takes; results stay bit-identical to serial
///      replay because re-partitioning preserves the logical row multiset.
///
/// Threading: Observe() is a mutex-guarded ring append (hot path). Cycles
/// are serialized by cycle_mu_ whether driven manually (RunCycle) or by the
/// background thread (Start/Stop); the destructor stops the thread.
class LayoutMaintenanceService {
 public:
  /// `layout` must outlive the service (CasperEngine owns both; the layout
  /// engine's heap address is stable across engine moves). `planner` and
  /// `block_values` must be the build-time configuration — use
  /// ResolvePlannerOptions so re-solves price layouts in the same units the
  /// original solve did.
  LayoutMaintenanceService(PartitionedLayout* layout, MaintenanceOptions options,
                           PlannerOptions planner, size_t block_values);
  ~LayoutMaintenanceService();

  LayoutMaintenanceService(const LayoutMaintenanceService&) = delete;
  LayoutMaintenanceService& operator=(const LayoutMaintenanceService&) = delete;

  /// Feed one live operation into the capture buffer.
  void Observe(const Operation& op);
  void ObserveAll(const std::vector<Operation>& ops);
  /// Spec-surface mirror of Observe: records a range-read spec as one
  /// {kRangeCount, lo, hi} observation — the capture treats every range kind
  /// alike (WorkloadCapture::Route). Full-domain and empty-range specs carry
  /// no locality signal and are skipped.
  void ObserveSpec(const ScanSpec& spec);

  /// One capture → detect → re-partition cycle (see class comment). Safe to
  /// call concurrently with queries and writes; concurrent cycles serialize.
  MaintenanceCycleReport RunCycle();

  /// Start/stop the background thread (no-ops when already in the requested
  /// state). Stop joins; the destructor calls it.
  void Start();
  void Stop();

  /// Hook invoked at the end of EVERY cycle (including cycles the noise gate
  /// skipped), after the cycle's own work — the tier manager's demote/promote
  /// pass rides here so tiering shares the maintenance cadence and thread.
  /// Set before Start(); not synchronized against a running background loop.
  void SetCycleHook(std::function<void()> hook) { cycle_hook_ = std::move(hook); }

  const MaintenanceOptions& options() const { return options_; }
  MaintenanceStats stats() const;

 private:
  void ObserveLocked(const Operation& op) REQUIRES(buf_mu_);
  void BackgroundLoop();
  MaintenanceCycleReport RunCycleInner();
  /// The current partitioning of chunk c mapped onto `num_blocks` logical
  /// blocks (cumulative live partition sizes → boundary bits), for pricing
  /// the as-is layout with the same cost objective the solver minimizes.
  Partitioning CurrentPartitioning(size_t c, size_t num_blocks) const;

  PartitionedLayout* const layout_;
  const MaintenanceOptions options_;
  const PlannerOptions planner_;
  const size_t block_values_;
  std::function<void()> cycle_hook_;

  // Observation ring (hot path: one guarded append per operation). Beyond
  // kMaxBufferedOps the oldest observations are dropped: the live model
  // wants recency, and the counters record the loss.
  static constexpr size_t kMaxBufferedOps = size_t{1} << 16;
  Mutex buf_mu_;
  std::vector<Operation> ring_ GUARDED_BY(buf_mu_);
  size_t ring_start_ GUARDED_BY(buf_mu_) = 0;
  size_t ring_count_ GUARDED_BY(buf_mu_) = 0;

  // Cycle state: per-chunk decayed live models; one cycle at a time.
  Mutex cycle_mu_;
  std::vector<FrequencyModel> live_ GUARDED_BY(cycle_mu_);

  // Lifetime totals (relaxed: frequency accounting, not synchronization).
  RelaxedCounter cycles_;
  RelaxedCounter observed_;
  RelaxedCounter dropped_;
  RelaxedCounter evaluated_;
  RelaxedCounter repartitioned_;
  RelaxedCounter capture_ns_;
  RelaxedCounter solve_ns_;
  RelaxedCounter repartition_ns_;

  // Background thread lifecycle (same cv-wait idiom as ThreadPool).
  Mutex thread_mu_;
  std::condition_variable wake_cv_;
  bool stop_ GUARDED_BY(thread_mu_) = false;
  std::thread worker_;
};

}  // namespace casper

#endif  // CASPER_MAINTENANCE_LAYOUT_MAINTENANCE_H_
