// Ablation for paper §5/§6.3: the layout solver. (1) The DP solver returns
// the exact optimum of the paper's BIP objective — cross-checked against
// exhaustive enumeration; (2) solve-time scaling with block count (the
// granularity/runtime knob of §4.3/§6.3); (3) size of the literal Eq. 20
// linearization that the paper ships to Mosek.
#include <cstdio>

#include "bench_util.h"
#include "model/cost_model.h"
#include "optimizer/bip.h"
#include "optimizer/dp_solver.h"
#include "util/stopwatch.h"

namespace casper::bench {
namespace {

FrequencyModel RandomFm(size_t blocks, uint64_t seed) {
  Rng rng(seed);
  FrequencyModel fm(blocks);
  for (size_t i = 0; i < blocks * 6; ++i) {
    switch (rng.Below(4)) {
      case 0:
        fm.AddPointQuery(rng.Below(blocks));
        break;
      case 1: {
        size_t a = rng.Below(blocks), b = rng.Below(blocks);
        fm.AddRangeQuery(std::min(a, b), std::max(a, b));
        break;
      }
      case 2:
        fm.AddInsert(rng.Below(blocks));
        break;
      default:
        fm.AddUpdate(rng.Below(blocks), rng.Below(blocks));
    }
  }
  return fm;
}

int Main() {
  PrintHeader("§5/§6.3 ablation", "layout solver: optimality, scaling, BIP size");
  const AccessCostConstants c = CalibrateEngineCosts(2048);

  std::printf("\n-- exact optimality: DP vs exhaustive enumeration --\n");
  std::printf("%8s %16s %16s %14s\n", "blocks", "DP cost", "exhaustive", "match");
  for (size_t n : {8u, 12u, 16u, 20u}) {
    CostTerms t = CostTerms::Compute(RandomFm(n, 100 + n), c);
    SolveResult dp = DpSolver::Solve(t);
    SolveResult ex = SolveExhaustive(t);
    std::printf("%8zu %16.1f %16.1f %14s\n", n, dp.cost, ex.cost,
                std::abs(dp.cost - ex.cost) < 1e-6 * std::abs(ex.cost) + 1e-9
                    ? "yes"
                    : "NO");
  }

  std::printf("\n-- solve time vs block count (per chunk; granularity knob) --\n");
  std::printf("%8s %16s %16s %18s\n", "blocks", "solve (ms)", "transitions",
              "partitions chosen");
  for (size_t n : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    CostTerms t = CostTerms::Compute(RandomFm(n, 200 + n), c);
    Stopwatch sw;
    SolveResult r = DpSolver::Solve(t);
    std::printf("%8zu %16.3f %16zu %18zu\n", n, sw.ElapsedMillis(),
                r.stats.transitions, r.partitioning.NumPartitions());
  }

  std::printf("\n-- SLA-constrained solves (layered DP vs Lagrangian) --\n");
  std::printf("%8s %10s %16s %14s %14s\n", "blocks", "max k", "cost", "method",
              "solve (ms)");
  for (size_t n : {128u, 512u}) {
    CostTerms t = CostTerms::Compute(RandomFm(n, 300 + n), c);
    for (size_t maxk : {8u, 32u}) {
      SolverOptions exact;
      exact.max_partitions = maxk;
      Stopwatch sw;
      SolveResult r = DpSolver::Solve(t, exact);
      std::printf("%8zu %10zu %16.1f %14s %14.3f\n", n, maxk, r.cost,
                  r.stats.used_lagrangian ? "lagrangian" : "layered-dp",
                  sw.ElapsedMillis());
    }
  }

  std::printf("\n-- literal Eq. 20 BIP size (what the paper ships to Mosek) --\n");
  std::printf("%8s %14s %14s %18s\n", "blocks", "variables", "constraints",
              "LP export bytes");
  for (size_t n : {16u, 64u, 256u}) {
    CostTerms t = CostTerms::Compute(RandomFm(n, 400 + n), c);
    SolverOptions opts;
    opts.max_partitions = n / 2;
    opts.max_partition_blocks = 8;
    BipFormulation bip(t, opts);
    std::printf("%8zu %14zu %14zu %18zu\n", n, bip.NumVariables(),
                bip.NumConstraints(), bip.ToLpFormat().size());
  }
  std::printf("(the DP replaces this quadratic-variable program with an O(N^2) "
              "interval DP\n returning the same argmin)\n");
  return 0;
}

}  // namespace
}  // namespace casper::bench

int main() { return casper::bench::Main(); }
