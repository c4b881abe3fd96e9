#include "optimizer/layout_planner.h"

#include <algorithm>

#include "exec/morsel.h"
#include "optimizer/sla.h"
#include "util/status.h"

namespace casper {

std::vector<size_t> ChunkPlan::PartitionValueSizes(size_t block_values,
                                                   size_t chunk_values) const {
  std::vector<size_t> sizes;
  const auto widths = partitioning.PartitionWidths();
  sizes.reserve(widths.size());
  size_t consumed_blocks = 0;
  size_t consumed_values = 0;
  for (const size_t w : widths) {
    consumed_blocks += w;
    const size_t end_value = std::min(chunk_values, consumed_blocks * block_values);
    sizes.push_back(end_value - consumed_values);
    consumed_values = end_value;
  }
  CASPER_CHECK_MSG(consumed_values == chunk_values,
                   "partitioning does not cover the chunk");
  return sizes;
}

ChunkPlan LayoutPlanner::PlanChunk(const FrequencyModel& fm, size_t chunk_values,
                                   const PlannerOptions& opts) {
  CASPER_CHECK(fm.num_blocks() > 0);
  CostTerms terms = CostTerms::Compute(fm, opts.costs);

  SolverOptions sopts;
  sopts.max_partition_blocks =
      SlaBounds::MaxPartitionWidthForReadSla(opts.read_sla_ns, opts.costs);
  size_t max_parts = SlaBounds::MaxPartitionsForUpdateSla(opts.update_sla_ns, opts.costs);
  if (opts.max_partitions > 0) {
    max_parts = (max_parts == 0) ? opts.max_partitions
                                 : std::min(max_parts, opts.max_partitions);
  }
  sopts.max_partitions = max_parts;
  // Joint feasibility: widening MPS is preferred over violating the update SLA.
  if (sopts.max_partition_blocks > 0 && sopts.max_partitions > 0 &&
      sopts.max_partitions * sopts.max_partition_blocks < fm.num_blocks()) {
    sopts.max_partition_blocks =
        (fm.num_blocks() + sopts.max_partitions - 1) / sopts.max_partitions;
  }

  ChunkPlan plan;
  SolveResult solved = DpSolver::Solve(terms, sopts);
  plan.partitioning = solved.partitioning;
  plan.predicted_cost = solved.cost;
  plan.solve_stats = solved.stats;

  const size_t budget =
      static_cast<size_t>(opts.ghost_fraction * static_cast<double>(chunk_values));
  plan.ghosts = AllocateGhostValues(fm, plan.partitioning, budget);
  return plan;
}

std::vector<ChunkPlan> LayoutPlanner::PlanChunks(const std::vector<FrequencyModel>& fms,
                                                 size_t chunk_values,
                                                 const PlannerOptions& opts,
                                                 ThreadPool* pool) {
  return exec::MorselMap<ChunkPlan>(pool, fms.size(), [&](size_t i) {
    return PlanChunk(fms[i], chunk_values, opts);
  });
}

}  // namespace casper
