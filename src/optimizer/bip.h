#ifndef CASPER_OPTIMIZER_BIP_H_
#define CASPER_OPTIMIZER_BIP_H_

#include <cstddef>
#include <string>

#include "model/cost_model.h"
#include "optimizer/dp_solver.h"
#include "optimizer/partitioning.h"

namespace casper {

/// The literal binary integer program of paper Eq. 20/21: the product terms
/// of Eq. 19 are replaced by auxiliary variables y_{i,j} == prod_{k=i..j}
/// (1 - p_k), with the linking constraints
///
///   y_{i,i} = 1 - p_i
///   y_{i,j} <= 1 - p_j            (i < j)
///   y_{i,j} >= 1 - sum_{k=i..j} p_k
///   y_{i,j} in {0, 1}
///
/// plus p_{N-1} = 1 and the SLA bounds. The paper solves this with Mosek;
/// this repo solves the identical objective exactly with DpSolver and
/// keeps this class to (a) document/export the formulation and (b) provide
/// an independent reference solver for tests.
class BipFormulation {
 public:
  BipFormulation(const CostTerms& terms, const SolverOptions& opts = {});

  size_t num_blocks() const { return terms_.num_blocks(); }
  size_t NumVariables() const;    ///< p_i plus materialized y_{i,j}
  size_t NumConstraints() const;  ///< linking + mandatory-boundary + SLA rows

  /// Objective value of Eq. 20 for a concrete assignment, with each y_{i,j}
  /// set to its implied value prod (1-p_k). Must agree with Eq. 16.
  double Objective(const Partitioning& p) const;

  /// True when `p` satisfies the SLA bound rows (Eq. 21).
  bool Feasible(const Partitioning& p) const;

  /// CPLEX-LP-format export of the full linearized program, suitable for
  /// feeding to an external BIP solver (Mosek/CBC/…) to reproduce the
  /// paper's exact pipeline.
  std::string ToLpFormat() const;

 private:
  CostTerms terms_;
  SolverOptions opts_;
};

/// Exhaustive reference solver: enumerates all 2^(N-1) boundary vectors.
/// Only for N <= ~22; used to certify DpSolver optimality in tests.
SolveResult SolveExhaustive(const CostTerms& terms, const SolverOptions& opts = {});

}  // namespace casper

#endif  // CASPER_OPTIMIZER_BIP_H_
