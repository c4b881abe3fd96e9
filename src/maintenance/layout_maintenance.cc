#include "maintenance/layout_maintenance.h"

#include <algorithm>
#include <cmath>

#include "layouts/partitioned.h"
#include "model/cost_model.h"
#include "storage/table.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "workload/capture.h"

namespace casper {

LayoutMaintenanceService::LayoutMaintenanceService(PartitionedLayout* layout,
                                                   MaintenanceOptions options,
                                                   PlannerOptions planner,
                                                   size_t block_values)
    : layout_(layout),
      options_(options),
      planner_(planner),
      block_values_(block_values) {
  MutexLock lock(buf_mu_);
  ring_.resize(kMaxBufferedOps);
}

LayoutMaintenanceService::~LayoutMaintenanceService() { Stop(); }

void LayoutMaintenanceService::ObserveLocked(const Operation& op) {
  if (ring_count_ == ring_.size()) {
    // Full: overwrite the oldest observation — the live model wants recency.
    ring_[ring_start_] = op;
    ring_start_ = (ring_start_ + 1) % ring_.size();
    dropped_.Add(1);
  } else {
    ring_[(ring_start_ + ring_count_) % ring_.size()] = op;
    ++ring_count_;
  }
  observed_.Add(1);
}

void LayoutMaintenanceService::Observe(const Operation& op) {
  MutexLock lock(buf_mu_);
  ObserveLocked(op);
}

void LayoutMaintenanceService::ObserveAll(const std::vector<Operation>& ops) {
  MutexLock lock(buf_mu_);
  for (const Operation& op : ops) ObserveLocked(op);
}

void LayoutMaintenanceService::ObserveSpec(const ScanSpec& spec) {
  if (spec.full_domain || spec.EmptyKeyRange()) return;
  // The capture routes every range kind alike, so one kind stands for all.
  Operation op;
  op.kind = OpKind::kRangeCount;
  op.a = spec.lo;
  op.b = spec.hi;
  Observe(op);
}

Partitioning LayoutMaintenanceService::CurrentPartitioning(
    size_t c, size_t num_blocks) const {
  std::vector<size_t> sizes;
  layout_->table().SnapshotChunkPartitionSizes(c, &sizes);
  // Map cumulative live partition sizes onto boundary bits at block
  // granularity. Partitions drift off block boundaries as writes land, so
  // this is the nearest block-aligned description of the current geometry —
  // the same granularity the solver prices, making the two costs comparable.
  std::vector<uint8_t> bits(num_blocks, 0);
  size_t cum = 0;
  for (const size_t sz : sizes) {
    cum += sz;
    if (cum == 0) continue;
    bits[std::min(num_blocks - 1, (cum - 1) / block_values_)] = 1;
  }
  bits[num_blocks - 1] = 1;
  return Partitioning::FromBoundaryBits(std::move(bits));
}

CycleCapture CaptureCycle(const PartitionedTable& table,
                          const std::vector<Operation>& ops,
                          size_t block_values) {
  // The distinct keys the ops name, ascending: chunks cover ascending key
  // ranges, so the keys routing to one chunk form one run.
  std::vector<Value> keys;
  for (const Operation& op : ops) WorkloadCapture::AppendRankedKeys(op, &keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // A key's global rank is the live rows of every earlier chunk plus its
  // rank inside its own chunk — exactly its lower_bound position in the
  // concatenation of the chunks' sorted keys, the input WorkloadCapture
  // ranks against at build time. Empty chunks get no model (nothing to
  // re-partition there); their keys rank at the next non-empty chunk's start.
  CycleCapture out;
  std::vector<size_t> ranks(keys.size());
  size_t rows_before = 0;
  size_t first = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    size_t last = first;
    while (last < keys.size() && table.ChunkFor(keys[last]) == c) ++last;
    const size_t rows = table.RankKeysInChunk(c, keys.data() + first,
                                              last - first, ranks.data() + first);
    for (size_t k = first; k < last; ++k) ranks[k] += rows_before;
    rows_before += rows;
    first = last;
    if (rows == 0) continue;
    out.chunks.push_back(c);
    out.rows.push_back(rows);
  }
  if (out.chunks.empty()) return out;

  WorkloadCapture capture(
      [&keys, &ranks](Value v) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), v);
        CASPER_CHECK_MSG(it != keys.end() && *it == v, "key was not ranked");
        return ranks[static_cast<size_t>(it - keys.begin())];
      },
      out.rows, block_values);
  capture.CaptureAll(ops);
  out.models = std::move(capture.mutable_models());
  return out;
}

MaintenanceCycleReport LayoutMaintenanceService::RunCycle() {
  const MaintenanceCycleReport report = RunCycleInner();
  capture_ns_.Add(report.capture_ns);
  solve_ns_.Add(report.solve_ns);
  repartition_ns_.Add(report.repartition_ns);
  if (cycle_hook_) cycle_hook_();
  return report;
}

MaintenanceCycleReport LayoutMaintenanceService::RunCycleInner() {
  MaintenanceCycleReport report;
  MutexLock cycle(cycle_mu_);
  cycles_.Add(1);
  Stopwatch stage;

  // Drain the observation ring (oldest first). Below the noise gate the ops
  // stay buffered: the next cycle captures them together with its own.
  std::vector<Operation> ops;
  {
    MutexLock lock(buf_mu_);
    if (ring_count_ < options_.min_cycle_ops) return report;
    ops.reserve(ring_count_);
    for (size_t i = 0; i < ring_count_; ++i) {
      ops.push_back(ring_[(ring_start_ + i) % ring_.size()]);
    }
    ring_start_ = 0;
    ring_count_ = 0;
  }
  report.ops_captured = ops.size();

  const CycleCapture capture = CaptureCycle(layout_->table(), ops, block_values_);

  // Fold the fresh capture into the decayed live models. Rescale bridges
  // block-count changes (chunk grew/shrank since the last cycle).
  const size_t num_chunks = layout_->table().num_chunks();
  if (live_.size() != num_chunks) live_.assign(num_chunks, FrequencyModel());
  struct Candidate {
    size_t chunk;
    size_t rows;
    double activity;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < capture.chunks.size(); ++i) {
    const size_t c = capture.chunks[i];
    const FrequencyModel& fresh = capture.models[i];
    FrequencyModel& live = live_[c];
    if (live.num_blocks() != fresh.num_blocks()) {
      live = live.num_blocks() == 0 ? FrequencyModel(fresh.num_blocks())
                                    : live.Rescale(fresh.num_blocks());
    }
    live.Scale(options_.decay);
    live.Merge(fresh);
    if (live.Empty()) continue;
    candidates.push_back({c, capture.rows[i], fresh.total_operations()});
  }
  // Most-active chunks first: under the per-cycle cap, the hottest diverged
  // chunks get fixed now, colder ones next cycle.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.activity != b.activity) return a.activity > b.activity;
              return a.chunk < b.chunk;
            });
  report.capture_ns = stage.ElapsedNanos();

  for (const Candidate& cand : candidates) {
    if (report.chunks_repartitioned >= options_.max_chunks_per_cycle) break;
    ++report.chunks_evaluated;
    evaluated_.Add(1);

    stage.Restart();
    const FrequencyModel& live = live_[cand.chunk];
    const CostTerms terms = CostTerms::Compute(live, planner_.costs);
    const double current_cost =
        EvaluateLayoutCost(terms, CurrentPartitioning(cand.chunk, live.num_blocks()));
    const ChunkPlan plan = LayoutPlanner::PlanChunk(live, cand.rows, planner_);
    report.solve_ns += stage.ElapsedNanos();
    const double benefit = current_cost - plan.predicted_cost;
    if (current_cost <= 0.0) continue;
    if (benefit / current_cost < options_.divergence_threshold) continue;
    // Amortization gate: the swap itself sequentially reads and rewrites
    // every block of the chunk once.
    const double move_blocks = std::ceil(static_cast<double>(cand.rows) /
                                         static_cast<double>(block_values_));
    if (benefit < move_blocks * (planner_.costs.sr + planner_.costs.sw)) continue;

    PartitionedTable::ChunkLayoutSpec spec;
    spec.partition_sizes = plan.PartitionValueSizes(block_values_, cand.rows);
    spec.ghosts = plan.ghosts.per_partition;
    stage.Restart();
    const bool swapped = layout_->RepartitionChunk(cand.chunk, spec);
    report.repartition_ns += stage.ElapsedNanos();
    if (swapped) {
      ++report.chunks_repartitioned;
      repartitioned_.Add(1);
    }
  }
  return report;
}

void LayoutMaintenanceService::Start() {
  if (worker_.joinable()) return;
  {
    MutexLock lock(thread_mu_);
    stop_ = false;
  }
  worker_ = std::thread([this] { BackgroundLoop(); });
}

void LayoutMaintenanceService::Stop() {
  if (!worker_.joinable()) return;
  {
    MutexLock lock(thread_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  worker_.join();
}

void LayoutMaintenanceService::BackgroundLoop() {
  for (;;) {
    {
      MutexLock lock(thread_mu_);
      wake_cv_.wait_for(lock.native(), options_.capture_interval, [this] {
        thread_mu_.AssertHeld();
        return stop_;
      });
      if (stop_) return;
    }
    RunCycle();
  }
}

MaintenanceStats LayoutMaintenanceService::stats() const {
  MaintenanceStats s;
  s.cycles = cycles_.load();
  s.ops_observed = observed_.load();
  s.ops_dropped = dropped_.load();
  s.chunks_evaluated = evaluated_.load();
  s.chunks_repartitioned = repartitioned_.load();
  s.capture_ns = capture_ns_.load();
  s.solve_ns = solve_ns_.load();
  s.repartition_ns = repartition_ns_.load();
  return s;
}

}  // namespace casper
