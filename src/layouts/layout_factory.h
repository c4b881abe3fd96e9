#ifndef CASPER_LAYOUTS_LAYOUT_FACTORY_H_
#define CASPER_LAYOUTS_LAYOUT_FACTORY_H_

#include <memory>
#include <vector>

#include "layouts/layout_engine.h"
#include "optimizer/layout_planner.h"
#include "storage/table.h"
#include "workload/ops.h"

namespace casper {

class PartitionedLayout;
class ThreadPool;

/// Everything needed to instantiate any of the six layout modes over the
/// same logical data — the apples-to-apples harness of paper §7.
struct LayoutBuildOptions {
  LayoutMode mode = LayoutMode::kCasper;

  // Chunking and block granularity. The paper uses 1M-value chunks with
  // 16KB blocks; at laptop scale (DRAM instead of a 45MB-L3 server) 4KB
  // blocks give point queries the same relative cost vs binary search that
  // the paper's setup has.
  size_t chunk_values = size_t{1} << 20;
  size_t block_values = 512;

  /// Partitions per chunk for the equi-width modes; also the fairness cap on
  /// Casper's partition count (paper §7: "we allow Casper to have as many
  /// partitions as the equi-width partitioning schemes").
  size_t equi_partitions = 1024;

  /// Ghost-value budget as a fraction of data size (EquiGV spreads it
  /// evenly; Casper distributes it by Eq. 18). The paper's headline (Fig. 1)
  /// uses 1%; Fig. 14 sweeps 0.01%..10%. At laptop scale the budget must
  /// cover the expected insert volume to stay in the paper's regime (at
  /// 100M rows even 0.1% dwarfs a 10k-op workload).
  double ghost_fraction = 0.01;

  /// Casper's optimizer inputs (access costs, SLAs). ghost_fraction and the
  /// equi-partition fairness cap above override the planner's own fields.
  PlannerOptions planner;

  /// Micro-benchmark the access-cost constants for this machine and block
  /// size before planning (paper §4.5: "for every instance of Casper
  /// deployed, we first need to establish these values"). When false,
  /// planner.costs is used verbatim.
  bool calibrate_costs = true;

  /// Training workload for Casper mode (required for kCasper).
  const std::vector<Operation>* training = nullptr;

  /// Optional pool threaded through the whole stack: parallel per-chunk
  /// frequency-model capture and layout planning at build time (paper §6.3),
  /// then morsel-driven scan fan-out and chunk-grouped batched writes.
  ThreadPool* pool = nullptr;
};

/// The planner options the factory actually solves with, after folding in
/// the build-level knobs: ghost_fraction and the equi-partition fairness cap
/// override the planner's own fields, and (when calibrate_costs is set) the
/// access-cost constants are micro-benchmarked for this machine and block
/// size. Exposed so the online maintenance service re-solves chunks under
/// exactly the configuration the original build used.
PlannerOptions ResolvePlannerOptions(const LayoutBuildOptions& options);

/// Builds a layout engine over the given rows (keys may be unsorted; every
/// mode except NoOrder sorts internally, carrying payload columns along).
std::unique_ptr<LayoutEngine> BuildLayout(const LayoutBuildOptions& options,
                                          std::vector<Value> keys,
                                          std::vector<std::vector<Payload>> payload);

/// BuildLayout for the partitioned modes (EquiWidth, EquiWidthGhost,
/// Casper): sorts the rows, cuts duplicate-safe chunks and plans each
/// chunk's partitions and ghost slots. Casper mode needs options.training.
std::unique_ptr<PartitionedLayout> BuildPartitionedLayout(
    const LayoutBuildOptions& options, std::vector<Value> keys,
    std::vector<std::vector<Payload>> payload);

/// The PartitionedTable::Options a partitioned build derives from the
/// build-level knobs (chunk capacity, block granularity, dense/ghost mode)
/// and the factory's dense spare tail. Exposed so durable-store recovery
/// rebuilds the table under exactly the configuration the original build
/// used.
PartitionedTable::Options PartitionedTableOptionsFor(
    const LayoutBuildOptions& options);

/// Sorts keys and applies the same permutation to every payload column.
void SortRowsByKey(std::vector<Value>* keys,
                   std::vector<std::vector<Payload>>* payload);

/// Chunk row counts of at most chunk_values each, adjusted so no run of
/// duplicate keys straddles a chunk boundary (chunk routing, like partition
/// routing, requires strictly increasing chunk upper bounds).
std::vector<size_t> DuplicateSafeChunkCounts(const std::vector<Value>& sorted_keys,
                                             size_t chunk_values);

}  // namespace casper

#endif  // CASPER_LAYOUTS_LAYOUT_FACTORY_H_
