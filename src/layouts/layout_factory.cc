#include "layouts/layout_factory.h"

#include <algorithm>
#include <numeric>

#include "layouts/delta_store.h"
#include "layouts/no_order.h"
#include "layouts/partitioned.h"
#include "layouts/sorted.h"
#include "storage/table.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/capture.h"

namespace casper {

std::string_view LayoutModeName(LayoutMode mode) {
  switch (mode) {
    case LayoutMode::kNoOrder:
      return "NoOrder";
    case LayoutMode::kSorted:
      return "Sorted";
    case LayoutMode::kDeltaStore:
      return "State-of-art";
    case LayoutMode::kEquiWidth:
      return "Equi";
    case LayoutMode::kEquiWidthGhost:
      return "Equi-GV";
    case LayoutMode::kCasper:
      return "Casper";
  }
  return "?";
}

void SortRowsByKey(std::vector<Value>* keys,
                   std::vector<std::vector<Payload>>* payload) {
  if (std::is_sorted(keys->begin(), keys->end())) return;
  std::vector<size_t> order(keys->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return (*keys)[a] < (*keys)[b]; });
  std::vector<Value> sorted_keys(keys->size());
  for (size_t i = 0; i < order.size(); ++i) sorted_keys[i] = (*keys)[order[i]];
  *keys = std::move(sorted_keys);
  for (auto& col : *payload) {
    std::vector<Payload> sorted_col(col.size());
    for (size_t i = 0; i < order.size(); ++i) sorted_col[i] = col[order[i]];
    col = std::move(sorted_col);
  }
}

std::vector<size_t> DuplicateSafeChunkCounts(const std::vector<Value>& sorted_keys,
                                             size_t chunk_values) {
  CASPER_CHECK(chunk_values > 0);
  const size_t n = sorted_keys.size();
  std::vector<size_t> counts;
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(n, begin + chunk_values);
    while (end > begin + 1 && end < n && sorted_keys[end - 1] == sorted_keys[end]) {
      ++end;  // extend past the duplicate run
    }
    counts.push_back(end - begin);
    begin = end;
  }
  return counts;
}

namespace {

constexpr size_t kGhostBatch = 8;         ///< free slots pulled in per grow
constexpr size_t kDenseSpareTail = 1024;  ///< dense chunks' column-end scratch

std::vector<size_t> EquiPartitionSizes(size_t rows, size_t k) {
  k = std::max<size_t>(1, std::min(k, rows));
  std::vector<size_t> sizes;
  sizes.reserve(k);
  size_t prev = 0;
  for (size_t t = 1; t <= k; ++t) {
    const size_t end = t * rows / k;
    if (end > prev) sizes.push_back(end - prev);
    prev = end;
  }
  return sizes;
}

std::vector<size_t> EvenGhosts(size_t partitions, size_t budget) {
  std::vector<size_t> g(partitions, budget / std::max<size_t>(1, partitions));
  for (size_t i = 0; i < budget % std::max<size_t>(1, partitions); ++i) g[i] += 1;
  return g;
}

}  // namespace

PartitionedTable::Options PartitionedTableOptionsFor(
    const LayoutBuildOptions& options) {
  PartitionedTable::Options topts;
  topts.chunk_values = options.chunk_values;
  topts.chunk.block_values = options.block_values;
  topts.chunk.dense = (options.mode == LayoutMode::kEquiWidth);
  // The dense design moves exactly one slot per ripple (paper Fig. 4);
  // batching is a ghost-value optimization (paper §6.1).
  topts.chunk.ghost_batch = topts.chunk.dense ? 1 : kGhostBatch;
  topts.chunk.spare_tail = topts.chunk.dense ? kDenseSpareTail : 0;
  return topts;
}

PlannerOptions ResolvePlannerOptions(const LayoutBuildOptions& options) {
  PlannerOptions planner = options.planner;
  planner.ghost_fraction = options.ghost_fraction;
  if (planner.max_partitions == 0) planner.max_partitions = options.equi_partitions;
  if (options.calibrate_costs) {
    // Preserve any SLA the caller expressed in pre-calibration units by
    // keeping index_probe; only the four access constants are replaced.
    const double probe = planner.costs.index_probe;
    planner.costs = CalibrateEngineCosts(options.block_values);
    planner.costs.index_probe = probe;
  }
  return planner;
}

std::unique_ptr<PartitionedLayout> BuildPartitionedLayout(
    const LayoutBuildOptions& options, std::vector<Value> keys,
    std::vector<std::vector<Payload>> payload) {
  CASPER_CHECK_MSG(IsPartitionedMode(options.mode),
                   "BuildPartitionedLayout needs a partitioned layout mode");
  SortRowsByKey(&keys, &payload);
  const auto counts = DuplicateSafeChunkCounts(keys, options.chunk_values);

  std::vector<PartitionedTable::ChunkLayoutSpec> specs(counts.size());
  if (options.mode == LayoutMode::kCasper) {
    CASPER_CHECK_MSG(options.training != nullptr,
                     "Casper mode needs a training workload sample");
    WorkloadCapture capture(keys, counts, options.block_values);
    capture.CaptureAll(*options.training, options.pool);

    const PlannerOptions planner = ResolvePlannerOptions(options);

    std::vector<ChunkPlan> plans = LayoutPlanner::PlanChunks(
        capture.models(), options.chunk_values, planner, options.pool);
    for (size_t c = 0; c < counts.size(); ++c) {
      // The plan was made on block granularity; translate to value sizes of
      // this chunk's actual row count.
      specs[c].partition_sizes =
          plans[c].PartitionValueSizes(options.block_values, counts[c]);
      specs[c].ghosts = plans[c].ghosts.per_partition;
    }
  } else {
    const bool with_ghosts = options.mode == LayoutMode::kEquiWidthGhost;
    for (size_t c = 0; c < counts.size(); ++c) {
      specs[c].partition_sizes = EquiPartitionSizes(counts[c], options.equi_partitions);
      const size_t budget =
          with_ghosts ? static_cast<size_t>(options.ghost_fraction *
                                            static_cast<double>(counts[c]))
                      : 0;
      specs[c].ghosts = EvenGhosts(specs[c].partition_sizes.size(), budget);
    }
  }

  const PartitionedTable::Options topts = PartitionedTableOptionsFor(options);

  PartitionedTable table =
      PartitionedTable::Build(std::move(keys), std::move(payload), std::move(specs),
                              topts);
  return std::make_unique<PartitionedLayout>(options.mode, std::move(table));
}

std::unique_ptr<LayoutEngine> BuildLayout(const LayoutBuildOptions& options,
                                          std::vector<Value> keys,
                                          std::vector<std::vector<Payload>> payload) {
  switch (options.mode) {
    case LayoutMode::kNoOrder:
      return std::make_unique<NoOrderLayout>(std::move(keys), std::move(payload));
    case LayoutMode::kSorted:
      SortRowsByKey(&keys, &payload);
      return std::make_unique<SortedLayout>(std::move(keys), std::move(payload));
    case LayoutMode::kDeltaStore:
      SortRowsByKey(&keys, &payload);
      return std::make_unique<DeltaStoreLayout>(std::move(keys), std::move(payload));
    case LayoutMode::kEquiWidth:
    case LayoutMode::kEquiWidthGhost:
    case LayoutMode::kCasper:
      return BuildPartitionedLayout(options, std::move(keys), std::move(payload));
  }
  CASPER_CHECK_MSG(false, "unknown layout mode");
  return nullptr;
}

}  // namespace casper
