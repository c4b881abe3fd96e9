#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace casper {
namespace {

TEST(CasperEngine, OpenAndQueryAllApis) {
  Rng rng(1);
  auto ds = hap::MakeDataset(10000, 2, rng);
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, ds.domain_lo, ds.domain_hi);
  auto training = GenerateWorkload(spec, 2000, rng);

  EngineOptions opts;
  opts.keys = ds.keys;
  opts.payload = ds.payload;
  opts.training = &training;
  opts.layout.mode = LayoutMode::kCasper;
  opts.layout.chunk_values = 4096;
  opts.layout.block_values = 128;
  CasperEngine engine = CasperEngine::Open(std::move(opts));

  EXPECT_EQ(engine.mode(), LayoutMode::kCasper);
  EXPECT_EQ(engine.num_rows(), 10000u);
  EXPECT_EQ(engine.ScanAll(), 10000u);

  // (iv) insert, (ii) find.
  engine.Insert(ds.domain_hi + 50, {7, 8});
  std::vector<Payload> row;
  EXPECT_EQ(engine.Find(ds.domain_hi + 50, &row), 1u);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 7u);

  // (iii) range, (v) update + delete.
  EXPECT_GE(engine.CountBetween(ds.domain_lo, ds.domain_hi + 100), 10001u - 1);
  EXPECT_TRUE(engine.Update(ds.domain_hi + 50, ds.domain_lo + 1));
  EXPECT_GE(engine.Find(ds.domain_lo + 1, nullptr), 1u);
  EXPECT_EQ(engine.Delete(ds.domain_lo + 1), 1u);
  EXPECT_EQ(engine.num_rows(), 10000u);
}

TEST(CasperEngine, CasperBeatsBaselinesOnHybridSkewed) {
  // The paper's headline claim at test scale: on a hybrid skewed workload,
  // the tailored layout must beat the write-pessimal and read-pessimal
  // baselines, and hold its own against the delta-store comparator. (The
  // decisive Casper-vs-delta margins need bench scale; see bench/.)
  Rng rng(7);
  const size_t rows = 300000;
  auto ds = hap::MakeDataset(rows, 0, rng);
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, ds.domain_lo, ds.domain_hi);
  Rng train_rng(8), run_rng(9);
  auto training = GenerateWorkload(spec, 6000, train_rng);
  auto ops = GenerateWorkload(spec, 6000, run_rng);

  auto run = [&](LayoutMode mode) {
    LayoutBuildOptions opts;
    opts.mode = mode;
    opts.training = &training;
    auto engine = BuildLayout(opts, ds.keys, ds.payload);
    HarnessOptions hopts;
    hopts.record_latency = false;
    return RunWorkload(*engine, ops, hopts).ThroughputOpsPerSec();
  };

  // One wall-clock run per layout is at the mercy of a noisy host: each
  // layout's throughput is the median of kReps runs, interleaved across the
  // layouts so a slow stretch hits all of them alike.
  constexpr size_t kReps = 5;
  const std::vector<LayoutMode> modes = {LayoutMode::kCasper,
                                         LayoutMode::kEquiWidth,
                                         LayoutMode::kSorted,
                                         LayoutMode::kDeltaStore};
  std::vector<std::vector<double>> runs(modes.size());
  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t m = 0; m < modes.size(); ++m) runs[m].push_back(run(modes[m]));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double casper = median(runs[0]);
  const double equi = median(runs[1]);
  const double sorted = median(runs[2]);
  const double delta = median(runs[3]);
  EXPECT_GT(casper, sorted) << "Casper must outperform fully sorted";
  EXPECT_GT(casper, equi) << "Casper must outperform blind equi-width";
  // 2-core CI noise guard: Casper should be at least competitive with the
  // delta store at this scale (it wins outright at bench scale).
  EXPECT_GT(casper, delta * 0.8) << "Casper fell far behind the delta store";
}

TEST(Harness, RecordsPerClassLatency) {
  Rng rng(3);
  auto ds = hap::MakeDataset(2000, 1, rng);
  auto spec = hap::MakeSpec(hap::Workload::kReadOnlyUniform, ds.domain_lo,
                            ds.domain_hi);
  auto training = GenerateWorkload(spec, 500, rng);
  LayoutBuildOptions opts;
  opts.mode = LayoutMode::kEquiWidth;
  opts.chunk_values = 1024;
  opts.block_values = 64;
  auto engine = BuildLayout(opts, ds.keys, ds.payload);
  auto ops = GenerateWorkload(spec, 1000, rng);
  HarnessResult r = RunWorkload(*engine, ops);
  EXPECT_EQ(r.ops, 1000u);
  EXPECT_GT(r.ThroughputOpsPerSec(), 0.0);
  EXPECT_GT(r.Rec(OpKind::kPointQuery).count(), 800u);
  EXPECT_GT(r.Rec(OpKind::kRangeCount).count(), 0u);
  EXPECT_EQ(r.Rec(OpKind::kInsert).count(), 0u);
  EXPECT_FALSE(FormatResult(r).empty());
}

TEST(Harness, ChecksumIsDeterministic) {
  Rng rng(4);
  auto ds = hap::MakeDataset(3000, 1, rng);
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, ds.domain_lo, ds.domain_hi);
  auto training = GenerateWorkload(spec, 500, rng);
  auto ops = GenerateWorkload(spec, 2000, rng);
  uint64_t checksums[2];
  for (int i = 0; i < 2; ++i) {
    LayoutBuildOptions opts;
    opts.mode = LayoutMode::kCasper;
    opts.chunk_values = 2048;
    opts.block_values = 64;
    opts.training = &training;
    auto engine = BuildLayout(opts, ds.keys, ds.payload);
    checksums[i] = RunWorkload(*engine, ops).checksum;
  }
  EXPECT_EQ(checksums[0], checksums[1]);
}

}  // namespace
}  // namespace casper
