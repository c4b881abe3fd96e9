// Reproduces paper Fig. 16: robustness to workload uncertainty. The layout
// is trained on a split-domain workload (point queries target the upper
// half, inserts the lower half, 50/50) and evaluated under (i) rotational
// shift of the target regions (x-axis) and (ii) mass shift between point
// queries and inserts (lines). The paper reports a flat region (up to ~10%
// rotation / 15% mass shift) followed by a cliff of up to ~60%.
//
// Second axis — static vs adaptive: the same drift that produces the cliff,
// but with the online maintenance service enabled. Both engines replay
// identical phase streams (checksums asserted equal); the adaptive engine
// runs a maintenance cycle between phases. After the drift has settled, the
// post-drift phase is re-timed on both — the adaptive engine must beat the
// frozen layout (the gate this binary exits nonzero on).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "workload/drift.h"
#include "workload/perturb.h"

namespace casper::bench {
namespace {

void RobustnessMatrix(JsonMetrics& json) {
  PrintHeader("Figure 16", "robustness to workload uncertainty");
  const size_t rows = ScaledRows(1 << 20);
  const size_t num_ops = NumOps(8000);

  Rng data_rng(21);
  auto data = hap::MakeDataset(rows, 0, data_rng);
  WorkloadSpec base;
  base.domain_lo = data.domain_lo;
  base.domain_hi = data.domain_hi;
  base.mix = {.point_query = 0.5, .insert = 0.5};
  // Fig. 16a: point queries mostly target the latter part of the domain,
  // inserts the first part.
  base.read_target = std::make_shared<HotspotDistribution>(0.55, 0.4, 0.95);
  base.write_target = std::make_shared<HotspotDistribution>(0.05, 0.4, 0.95);

  Rng train_rng(22);
  auto training = GenerateWorkload(base, num_ops, train_rng);

  const std::vector<double> mass_shifts =
      SmokeMode() ? std::vector<double>{0.0}
                  : std::vector<double>{-0.25, -0.15, 0.0, 0.15, 0.25};
  const std::vector<double> rotations =
      SmokeMode() ? std::vector<double>{0.0, 0.20, 0.50}
                  : std::vector<double>{0.0,  0.05, 0.10, 0.15,
                                        0.20, 0.30, 0.40, 0.50};

  std::printf("rows=%zu ops=%zu; cell = mean latency normalized to the "
              "unperturbed run\n\n", rows, num_ops);
  std::printf("%10s", "mass\\rot");
  for (const double r : rotations) std::printf(" %8.0f%%", r * 100);
  std::printf("\n");

  auto run_cell = [&](double mass, double rot) {
    WorkloadSpec actual = ApplyMassShift(ApplyRotationalShift(base, rot), mass);
    Rng run_rng(23);
    auto ops = GenerateWorkload(actual, num_ops, run_rng);
    EngineOptions opts;
    opts.keys = data.keys;
    opts.payload = data.payload;
    opts.training = &training;
    opts.layout.mode = LayoutMode::kCasper;
    CasperEngine engine = CasperEngine::Open(std::move(opts));
    HarnessOptions hopts;
    hopts.record_latency = false;
    HarnessResult res = RunWorkload(engine.layout(), ops, hopts);
    return res.seconds * 1e6 / static_cast<double>(res.ops);
  };

  const double baseline_us = run_cell(0.0, 0.0);
  for (const double mass : mass_shifts) {
    std::printf("%9.0f%%", mass * 100);
    for (const double rot : rotations) {
      const double norm = run_cell(mass, rot) / baseline_us;
      std::printf(" %9.2f", norm);
      // e.g. fig16_norm_mass-15_rot10 = 100 * normalized latency.
      json.Add("fig16_norm_mass" + std::to_string(static_cast<int>(mass * 100)) +
                   "_rot" + std::to_string(static_cast<int>(rot * 100)),
               norm * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\n(expect: ~1.0 plateau for small shifts, degradation growing "
              "with uncertainty —\n paper reports up to ~1.6x at extreme "
              "shifts)\n");
}

/// Static-vs-adaptive axis: returns the adaptive/static post-drift speedup
/// (queries per second ratio; > 1 means the maintenance service won).
double StaticVsAdaptive(JsonMetrics& json) {
  PrintHeader("Figure 16 (adaptive axis)",
              "frozen layout vs online maintenance under drift");
  const size_t rows = SmokeMode() ? (size_t{1} << 16) : ScaledRows(1 << 20);
  const size_t phase_ops = NumOps(8000);

  Rng data_rng(31);
  auto data = hap::MakeDataset(rows, 2, data_rng);
  const DriftScenario scenario =
      ShiftingHotRange(data.domain_lo, data.domain_hi, 4);
  Rng train_rng(32);
  auto training = GenerateWorkload(scenario.training, phase_ops, train_rng);

  auto open = [&](bool adaptive) {
    EngineOptions opts;
    opts.keys = data.keys;
    opts.payload = data.payload;
    opts.training = &training;
    opts.layout.mode = LayoutMode::kCasper;
    // Several chunks so drift is a per-chunk re-solve, not all-or-nothing;
    // fixed cost constants so the trigger decision is machine-independent.
    opts.layout.chunk_values = std::max<size_t>(size_t{1} << 13, rows / 8);
    opts.layout.calibrate_costs = false;
    if (adaptive) {
      opts.maintenance.enabled = true;
      opts.maintenance.divergence_threshold = 0.05;
      opts.maintenance.max_chunks_per_cycle = 1 << 10;
      opts.maintenance.min_cycle_ops = 1;
    }
    return CasperEngine::Open(std::move(opts));
  };
  CasperEngine adaptive = open(true);
  CasperEngine fixed = open(false);

  // Drift walks the hot range across the domain; the adaptive engine gets
  // one (untimed) maintenance cycle per phase. Checksums must stay equal —
  // re-layout is a physical change only.
  std::vector<Operation> last_phase;
  for (size_t i = 0; i < scenario.phases.size(); ++i) {
    Rng rng(40 + i);
    last_phase = GenerateWorkload(scenario.phases[i].spec, phase_ops, rng);
    const MixedResult a = adaptive.RunMixed(last_phase);
    const MixedResult b = fixed.RunMixed(last_phase);
    if (a.checksum != b.checksum) {
      std::fprintf(stderr,
                   "FAIL: adaptive/static checksum divergence in phase %s\n",
                   scenario.phases[i].label.c_str());
      std::exit(2);
    }
    adaptive.maintenance()->RunCycle();
  }
  const size_t repartitioned = adaptive.maintenance()->stats().chunks_repartitioned;

  // Post-drift steady state: re-run the settled phase, timed, on both.
  auto timed_kops = [&](CasperEngine& engine) {
    HarnessOptions hopts;
    hopts.record_latency = false;
    const HarnessResult r = RunWorkload(engine.layout(), last_phase, hopts);
    return r.ThroughputOpsPerSec() / 1000.0;
  };
  const double static_kops = timed_kops(fixed);
  const double adaptive_kops = timed_kops(adaptive);
  const double ratio = adaptive_kops / static_kops;

  std::printf("rows=%zu ops/phase=%zu phases=%zu; %zu chunk(s) re-partitioned\n",
              rows, phase_ops, scenario.phases.size(), repartitioned);
  PrintRow("static post-drift", static_kops, "Kops/s");
  PrintRow("adaptive post-drift", adaptive_kops, "Kops/s");
  PrintRow("adaptive / static", ratio, "x");

  json.Add("fig16_static_postdrift_kops", static_kops);
  json.Add("fig16_adaptive_postdrift_kops", adaptive_kops);
  json.Add("fig16_adaptive_over_static", ratio);
  json.Add("fig16_chunks_repartitioned", static_cast<double>(repartitioned));
  return ratio;
}

int Main() {
  JsonMetrics json;
  RobustnessMatrix(json);
  const double ratio = StaticVsAdaptive(json);
  json.WriteIfRequested();

  // The acceptance gate: post-drift, online maintenance must recover real
  // throughput over the frozen layout. Full runs demand the paper-level
  // 1.3x; smoke runs (tiny data, debug-ish CI boxes) only demand that
  // adapting never loses to standing still.
  const double floor = SmokeMode() ? 1.0 : 1.3;
  if (ratio < floor) {
    std::fprintf(stderr,
                 "FAIL: adaptive/static post-drift ratio %.3f < %.2f floor\n",
                 ratio, floor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace casper::bench

int main() { return casper::bench::Main(); }
