// Service-level agreements as layout constraints (paper §5, Eq. 21): an
// operations team demands that no insert ever ripples longer than a budget,
// and that point queries never scan more than a bounded partition. Casper
// folds both bounds into the optimization problem instead of post-hoc
// throttling.
#include <cstdio>
#include <string>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "layouts/partitioned.h"
#include "model/access_cost.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/hap.h"

using namespace casper;

int main() {
  const size_t rows = 1 << 20;
  Rng rng(5);
  hap::Dataset data = hap::MakeDataset(rows, 0, rng);
  WorkloadSpec spec = hap::MakeSpec(hap::Workload::kSlaHybrid, data.domain_lo,
                                    data.domain_hi);
  Rng train_rng(6), run_rng(7);
  auto training = GenerateWorkload(spec, 10000, train_rng);
  auto live = GenerateWorkload(spec, 10000, run_rng);

  const AccessCostConstants costs = CalibrateEngineCosts(2048);
  std::printf("calibrated: ripple step = %.0f ns, block scan = %.0f ns\n\n",
              costs.rr + costs.rw, costs.sr);

  struct Config {
    const char* name;
    double update_sla_ns;
    double read_sla_ns;
  };
  const Config configs[] = {
      {"unconstrained", 0.0, 0.0},
      {"update SLA: 33 ripples", (costs.rr + costs.rw) * 33.0, 0.0},
      {"update SLA: 9 ripples", (costs.rr + costs.rw) * 9.0, 0.0},
      {"read SLA: 4-block scans", 0.0, costs.rr + costs.sr * 4.0},
  };

  std::printf("%-26s %10s %12s %12s %14s %12s\n", "configuration", "parts",
              "max width", "Q1 (us)", "Q4 p99.9 (us)", "Kops/s");
  for (const Config& cfg : configs) {
    EngineOptions opts;
    opts.keys = data.keys;
    opts.payload = data.payload;
    opts.training = &training;
    opts.layout.mode = LayoutMode::kCasper;
    opts.layout.planner.update_sla_ns = cfg.update_sla_ns;
    opts.layout.planner.read_sla_ns = cfg.read_sla_ns;
    CasperEngine engine = CasperEngine::Open(std::move(opts));
    const PartitionedTable& table = engine.layout().table();
    size_t parts = 0, max_width = 0;
    for (size_t ci = 0; ci < table.num_chunks(); ++ci) {
      const auto& chunk = table.key_chunk(ci);
      parts += chunk.num_partitions();
      for (size_t t = 0; t < chunk.num_partitions(); ++t) {
        max_width = std::max(max_width, chunk.partition(t).cap);
      }
    }
    HarnessResult r = RunWorkload(engine.layout(), live);
    std::printf("%-26s %10zu %12zu %12.2f %14.2f %12.1f\n", cfg.name, parts,
                max_width, r.Rec(OpKind::kPointQuery).MeanMicros(),
                r.Rec(OpKind::kInsert).PercentileMicros(0.999),
                r.ThroughputOpsPerSec() / 1000.0);
  }
  std::printf("\nTighter update SLAs cap the partition count (cheaper, bounded\n"
              "ripples) at the price of coarser reads; read SLAs cap the\n"
              "partition width (bounded scans) nearly for free on this workload.\n"
              "Pick the bound that matches the operation you must guarantee —\n"
              "that is paper Fig. 15's knob.\n");
  return 0;
}
