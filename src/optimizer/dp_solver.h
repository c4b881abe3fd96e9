#ifndef CASPER_OPTIMIZER_DP_SOLVER_H_
#define CASPER_OPTIMIZER_DP_SOLVER_H_

#include <cstddef>

#include "model/cost_model.h"
#include "optimizer/partitioning.h"

namespace casper {

/// Constraints on the layout search, derived from SLAs (paper Eq. 21).
struct SolverOptions {
  /// Maximum partition width in blocks (read SLA / MPS). 0 = unbounded.
  size_t max_partition_blocks = 0;
  /// Maximum number of partitions (update SLA). 0 = unbounded.
  size_t max_partitions = 0;
  /// Budget (in DP cells) under which the partition-count constraint is
  /// solved exactly by a layered DP; above it a Lagrangian relaxation
  /// (binary search on a per-boundary penalty) is used instead.
  size_t exact_layered_budget = size_t{1} << 26;
};

struct SolveStats {
  size_t transitions = 0;       ///< DP transitions evaluated
  double solve_seconds = 0.0;   ///< wall-clock solve time
  bool used_lagrangian = false; ///< true if the count constraint was relaxed
  int lagrangian_iterations = 0;
};

struct SolveResult {
  Partitioning partitioning;
  double cost = 0.0;  ///< objective value (Eq. 16) of the returned layout
  SolveStats stats;

  SolveResult() : partitioning(1) {}
};

/// Exact optimizer for the column-layout problem (paper Eq. 19/20).
///
/// The paper hands the linearized binary program to Mosek; this solver
/// instead exploits that the objective decomposes into a per-partition
/// weight plus a per-boundary weight (EvaluateLayoutCost), which an interval
/// dynamic program minimizes exactly in O(N^2) — returning the same argmin
/// as the BIP. The read SLA caps the DP transition length; the update SLA
/// bounds the boundary count via a layered DP (exact) or a Lagrangian
/// penalty search (large instances).
class DpSolver {
 public:
  static SolveResult Solve(const CostTerms& terms, const SolverOptions& opts = {});
};

}  // namespace casper

#endif  // CASPER_OPTIMIZER_DP_SOLVER_H_
