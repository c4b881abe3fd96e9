// Reproduces paper Fig. 9: cost-model verification. (a) measured vs modeled
// insert latency across partition ids (linear in trailing partitions);
// (b) measured vs modeled point-query latency across partitions of
// exponentially increasing size (linear in partition width). The paper
// reports measured/model ratios ~1.0 throughout.
//
// Panel (c) is the paper's Fig. 8b: a Frequency Model learned from the
// workload's distributions (§4.3, model/learned_fm) instead of counted from
// a sample. For each HAP mix it plans one layout from the learned model and
// one from the sampled training capture, and prices both under a large
// sampled reference capture of the same mix (Eq. 16).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/access_cost.h"
#include "model/cost_model.h"
#include "model/learned_fm.h"
#include "optimizer/layout_planner.h"
#include "storage/column_chunk.h"
#include "util/stopwatch.h"
#include "workload/capture.h"

namespace casper::bench {
namespace {

// Least-squares fit of measured = a + b * predictor, reported as fitted
// constants — the paper fits RR/RW/SR the same way (§4.5).
struct Fit {
  double a, b;
};
Fit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return {(sy - b * sx) / n, b};
}

void PartA_Inserts() {
  std::printf("\n-- (a) insert latency vs partition id (k = 100 partitions) --\n");
  const size_t rows = ScaledRows(4 << 20);
  const size_t k = 100;
  std::vector<Value> values;
  values.reserve(rows);
  Rng rng(3);
  for (size_t i = 0; i < rows; ++i) {
    values.push_back(static_cast<Value>(rng.Below(rows * 4)));
  }
  std::sort(values.begin(), values.end());
  std::vector<size_t> sizes(k, rows / k);
  sizes.back() += rows % k;
  PartitionedColumnChunk::Options copts;
  copts.dense = true;
  copts.spare_tail = 1 << 16;
  PartitionedColumnChunk chunk = PartitionedColumnChunk::Build(values, sizes, {}, copts);

  std::vector<double> trail, measured;
  std::printf("%12s %16s %16s %10s\n", "partition", "measured (ns)", "ripple steps",
              "");
  const int reps = 50;
  for (size_t m = 0; m < k; m += 10) {
    // A value routed to partition m.
    const auto& p = chunk.partition(std::min(m, chunk.num_partitions() - 1));
    const Value target = p.min_val;
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) chunk.Insert(target);
    const double ns = sw.ElapsedNanos() / static_cast<double>(reps);
    trail.push_back(static_cast<double>(k - m));
    measured.push_back(ns);
    std::printf("%12zu %16.1f %16zu\n", m, ns, k - 1 - m);
  }
  const Fit f = FitLine(trail, measured);
  std::printf("fit: measured = %.1f + %.1f * trailing_partitions (model: "
              "(RR+RW)*(1+trail); fitted RR+RW = %.1f ns)\n",
              f.a, f.b, f.b);
  // Model-vs-measured ratio using the fitted constants, as the paper plots.
  double worst_ratio = 1.0;
  for (size_t i = 0; i < trail.size(); ++i) {
    const double model = f.a + f.b * trail[i];
    if (model > 1.0) {
      worst_ratio = std::max(worst_ratio,
                             std::max(measured[i] / model, model / measured[i]));
    }
  }
  std::printf("worst measured/model ratio with fitted constants: %.2f "
              "(paper: ~1.0)\n", worst_ratio);
}

void PartB_PointQueries() {
  std::printf("\n-- (b) point-query latency vs partition size (exponential "
              "partitions) --\n");
  // 15 partitions with sizes 2^6 .. 2^20 (paper: 2^9 .. 2^22 on a 10M chunk).
  std::vector<size_t> sizes;
  size_t total = 0;
  for (int e = 6; e <= 20; ++e) {
    sizes.push_back(size_t{1} << e);
    total += sizes.back();
  }
  std::vector<Value> values(total);
  for (size_t i = 0; i < total; ++i) values[i] = static_cast<Value>(i);
  PartitionedColumnChunk chunk = PartitionedColumnChunk::Build(values, sizes, {});

  std::vector<double> widths, measured;
  std::printf("%12s %14s %16s\n", "partition", "size (values)", "measured (ns)");
  size_t begin = 0;
  Rng rng(9);
  for (size_t t = 0; t < sizes.size(); ++t) {
    const int reps = 30;
    Stopwatch sw;
    uint64_t sink = 0;
    for (int r = 0; r < reps; ++r) {
      const Value v = static_cast<Value>(begin + rng.Below(sizes[t]));
      sink += chunk.CountEqual(v);
    }
    const double ns = sw.ElapsedNanos() / static_cast<double>(reps);
    widths.push_back(static_cast<double>(sizes[t]));
    measured.push_back(ns);
    std::printf("%12zu %14zu %16.1f   (sink %lu)\n", t, sizes[t], ns,
                static_cast<unsigned long>(sink % 10));
    begin += sizes[t];
  }
  const Fit f = FitLine(widths, measured);
  std::printf("fit: measured = %.1f + %.4f * partition_values "
              "(model: RR + SR*(width-1); fitted per-value scan = %.4f ns)\n",
              f.a, f.b, f.b);
  double worst_ratio = 1.0;
  for (size_t i = 0; i < widths.size(); ++i) {
    const double model = f.a + f.b * widths[i];
    if (model > 50.0 && measured[i] > 50.0) {
      worst_ratio = std::max(worst_ratio,
                             std::max(measured[i] / model, model / measured[i]));
    }
  }
  std::printf("worst measured/model ratio with fitted constants: %.2f "
              "(paper: ~1.0)\n", worst_ratio);
}

/// The single-chunk Frequency Model `ops` capture over `sorted_keys`.
FrequencyModel SampledModel(const std::vector<Value>& sorted_keys,
                            size_t block_values, const std::vector<Operation>& ops) {
  WorkloadCapture capture(sorted_keys, sorted_keys.size(), block_values);
  capture.CaptureAll(ops);
  return capture.models()[0];
}

void PartC_LearnedModel() {
  std::printf("\n-- (c) learned vs sampled Frequency Model (paper Fig. 8b) --\n");
  const size_t rows = ScaledRows(1 << 20);
  const size_t block_values = 512;
  const size_t training_ops = NumOps();
  const size_t reference_ops = 40 * training_ops;
  Rng data_rng(21);
  hap::Dataset data = hap::MakeDataset(rows, 1, data_rng);
  std::vector<Value> keys = data.keys;
  std::sort(keys.begin(), keys.end());

  // The factory's planner configuration with fixed (uncalibrated) access
  // constants, so every run prices the same plans.
  LayoutBuildOptions build;
  build.ghost_fraction = 0.01;
  build.calibrate_costs = false;
  const PlannerOptions planner = ResolvePlannerOptions(build);

  std::printf("%zu rows, %zu-value blocks, %zu training ops, reference "
              "capture of %zu ops\n",
              rows, block_values, training_ops, reference_ops);
  std::printf("%-22s %14s %14s %14s %14s %16s\n", "workload", "parts sampled",
              "parts learned", "cost sampled", "cost learned", "learned/sampled");
  for (const hap::Workload w : hap::Figure12Workloads()) {
    const WorkloadSpec spec = hap::MakeSpec(w, data.domain_lo, data.domain_hi);
    Rng train_rng(22);
    Rng reference_rng(23);
    const FrequencyModel sampled =
        SampledModel(keys, block_values, GenerateWorkload(spec, training_ops, train_rng));
    const FrequencyModel learned = LearnFrequencyModel(
        keys, block_values, spec, static_cast<double>(training_ops));
    const CostTerms reference = CostTerms::Compute(
        SampledModel(keys, block_values,
                     GenerateWorkload(spec, reference_ops, reference_rng)),
        planner.costs);

    const ChunkPlan from_sample = LayoutPlanner::PlanChunk(sampled, rows, planner);
    const ChunkPlan from_learned = LayoutPlanner::PlanChunk(learned, rows, planner);
    const double cost_sampled = EvaluateLayoutCost(reference, from_sample.partitioning);
    const double cost_learned = EvaluateLayoutCost(reference, from_learned.partitioning);
    std::printf("%-22s %14zu %14zu %14.4g %14.4g %16.3f\n",
                std::string(hap::WorkloadName(w)).c_str(),
                from_sample.partitioning.NumPartitions(),
                from_learned.partitioning.NumPartitions(), cost_sampled,
                cost_learned, cost_learned / cost_sampled);
  }
  std::printf("(paper: the learned model's layout performs like the sampled "
              "one; a ratio near 1.0 keeps it)\n");
}

}  // namespace
}  // namespace casper::bench

int main() {
  casper::bench::PrintHeader("Figure 9", "cost model verification");
  casper::bench::PartA_Inserts();
  casper::bench::PartB_PointQueries();
  casper::bench::PartC_LearnedModel();
  return 0;
}
