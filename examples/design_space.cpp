// Walks the column-layout design space of paper Table 1 — data organization
// x update policy x buffering — instantiating each point on identical data
// and showing how the fundamental operations behave. This is the "map" of
// which the paper's six operation modes are concrete points.
#include <cstdio>
#include <string>

#include "engine/harness.h"
#include "layouts/layout_factory.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/hap.h"

using namespace casper;

namespace {

struct DesignPoint {
  LayoutMode mode;
  const char* organization;
  const char* update_policy;
  const char* buffering;
};

}  // namespace

int main() {
  // Table 1: (a) insertion order / (b) sorted / (c) partitioned
  //        x (a) in-place / (b) out-of-place / (c) hybrid
  //        x (a) none / (b) global / (c) per-partition.
  const DesignPoint points[] = {
      {LayoutMode::kNoOrder, "insertion order", "in-place", "none"},
      {LayoutMode::kSorted, "sorted", "in-place (shift)", "none"},
      {LayoutMode::kDeltaStore, "sorted", "out-of-place", "global (delta)"},
      {LayoutMode::kEquiWidth, "partitioned (equi)", "hybrid (ripple)", "none"},
      {LayoutMode::kEquiWidthGhost, "partitioned (equi)", "hybrid", "per-partition"},
      {LayoutMode::kCasper, "partitioned (tuned)", "hybrid", "per-partition (Eq.18)"},
  };

  const size_t rows = 1 << 19;
  Rng rng(17);
  hap::Dataset data = hap::MakeDataset(rows, 1, rng);
  WorkloadSpec spec = hap::MakeSpec(hap::Workload::kHybridSkewed, data.domain_lo,
                                    data.domain_hi);
  Rng train_rng(18), run_rng(19);
  auto training = GenerateWorkload(spec, 6000, train_rng);
  auto ops = GenerateWorkload(spec, 6000, run_rng);

  std::printf("%zu rows; hybrid skewed workload (Q1 49%% / Q4 50%% / Q6 1%%)\n\n",
              rows);
  std::printf("%-14s %-20s %-18s %-22s %10s %10s\n", "mode", "organization",
              "update policy", "buffering", "Q1 (us)", "Q4 (us)");
  for (const DesignPoint& p : points) {
    // BuildLayout builds every point, the single-store baselines included
    // (the engine facade opens only the partitioned ones).
    LayoutBuildOptions opts;
    opts.mode = p.mode;
    opts.training = &training;
    const auto layout = BuildLayout(opts, data.keys, data.payload);
    HarnessResult r = RunWorkload(*layout, ops);
    std::printf("%-14s %-20s %-18s %-22s %10.2f %10.3f\n",
                std::string(layout->name()).c_str(), p.organization,
                p.update_policy, p.buffering,
                r.Rec(OpKind::kPointQuery).MeanMicros(),
                r.Rec(OpKind::kInsert).MeanMicros());
  }
  std::printf("\nNo fixed point of the design space wins everywhere; Casper\n"
              "chooses the point (and the partition geometry within it) from\n"
              "the workload — that is the paper's thesis.\n");
  return 0;
}
