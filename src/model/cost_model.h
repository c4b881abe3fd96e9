#ifndef CASPER_MODEL_COST_MODEL_H_
#define CASPER_MODEL_COST_MODEL_H_

#include <cstddef>
#include <vector>

#include "model/access_cost.h"
#include "model/frequency_model.h"
#include "optimizer/partitioning.h"

namespace casper {

/// Per-block coefficients of the total workload cost (paper Eq. 17). With
/// these, Eq. 16 reads:
///
///   cost(P) = sum_i fixed[i]
///           + sum_i bck[i]  * bck_read(i)
///           + sum_i fwd[i]  * fwd_read(i)
///           + sum_i parts[i]* trail_parts(i)
///
/// where bck_read / fwd_read / trail_parts depend only on the partitioning.
struct CostTerms {
  std::vector<double> fixed;
  std::vector<double> bck;
  std::vector<double> fwd;
  std::vector<double> parts;

  size_t num_blocks() const { return fixed.size(); }

  /// Build the coefficients from a Frequency Model and access constants.
  static CostTerms Compute(const FrequencyModel& fm, const AccessCostConstants& c);
};

/// Evaluates Eq. 16 literally, computing bck_read (Eq. 2) and fwd_read
/// (Eq. 4) through their product-of-(1-p) definitions, and trail_parts
/// (Eq. 8) as a suffix sum. O(N^2); used as the ground-truth oracle.
double EvaluateLayoutCostLiteral(const CostTerms& terms, const Partitioning& p);

/// Evaluates the same objective in O(N) using the per-partition
/// decomposition: for a partition [a..b],
/// bck_read(i) = i - a and fwd_read(i) = b - i, and the trailing-partitions
/// term equals the prefix sum of `parts` at each boundary.
double EvaluateLayoutCost(const CostTerms& terms, const Partitioning& p);

/// Predicted latency (ns) of one insert into partition `m` of `p`
/// (paper Eq. 9): (RR + RW) * (1 + #partitions after m), plus index probe.
double PredictInsertLatency(const Partitioning& p, size_t m,
                            const AccessCostConstants& c);

/// Predicted latency (ns) of one point query against a partition that spans
/// `width_blocks` blocks (paper Eq. 7 ideal + extra reads): one random block
/// read plus sequential reads of the remaining blocks, plus index probe.
double PredictPointQueryLatency(size_t width_blocks, const AccessCostConstants& c);

/// Predicted average latencies of each operation class under partitioning
/// `p`, assuming uniformly distributed operation targets. Backs the
/// conceptual read/write-cost-vs-structure curves (paper Fig. 2a).
struct UniformWorkloadPrediction {
  double point_query_ns;
  double insert_ns;
  double delete_ns;
  double range_query_per_selectivity_ns;  // cost of scanning qualifying blocks
};
UniformWorkloadPrediction PredictUniform(const Partitioning& p,
                                         const AccessCostConstants& c);

}  // namespace casper

#endif  // CASPER_MODEL_COST_MODEL_H_
