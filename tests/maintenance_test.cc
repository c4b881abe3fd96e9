// Online adaptive re-layout: drift scenarios against the maintenance
// service. The contract under test, per scenario:
//   (1) drift that invalidates the trained layout actually triggers a
//       re-partition (the capture → detect loop closes);
//   (2) query results stay bit-identical to an untouched engine replaying
//       the same stream before/during/after re-partitions — including
//       read-only and mixed RunMixed batches while the swap is mid-flight;
//   (3) engines with maintenance disabled (or layouts without partition
//       geometry) never mutate their layout.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "maintenance/layout_maintenance.h"
#include "util/rng.h"
#include "workload/drift.h"
#include "workload/generator.h"

namespace casper {
namespace {

constexpr size_t kRows = size_t{1} << 16;
constexpr Value kDomain = Value{1} << 16;
constexpr size_t kPayloadCols = 2;
constexpr size_t kTrainingOps = 6000;
constexpr size_t kPhaseOps = 4000;

struct TableData {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;
};

TableData MakeData() {
  TableData d;
  d.keys.reserve(kRows);
  Rng rng(7);
  for (size_t i = 0; i < kRows; ++i) {
    d.keys.push_back(static_cast<Value>(rng.Next() % kDomain));
  }
  d.payload.resize(kPayloadCols);
  for (size_t c = 0; c < kPayloadCols; ++c) {
    d.payload[c].reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // Key-derived (the batched-write scheme): duplicate keys carry equal
      // payloads, so any physical reordering stays unobservable.
      const Value key = d.keys[i];
      d.payload[c].push_back(static_cast<Payload>(
          (static_cast<uint64_t>(key < 0 ? -key : key) * (c + 1)) % 10000));
    }
  }
  return d;
}

/// Small chunks (8 x 8K rows, 16 blocks each) so drift has several
/// independent sub-problems to re-solve; fixed cost constants so trigger
/// decisions are deterministic across machines.
EngineOptions BaseOptions(const TableData& d,
                          const std::vector<Operation>* training) {
  EngineOptions o;
  o.keys = d.keys;
  o.payload = d.payload;
  o.training = training;
  o.layout.mode = LayoutMode::kCasper;
  o.layout.chunk_values = size_t{1} << 13;
  o.layout.block_values = 512;
  o.layout.calibrate_costs = false;
  return o;
}

MaintenanceOptions ManualMaintenance() {
  MaintenanceOptions m;
  m.enabled = true;
  m.background = false;
  m.decay = 0.5;
  m.divergence_threshold = 0.05;
  m.max_chunks_per_cycle = 8;
  m.min_cycle_ops = 1;
  return m;
}

std::vector<Operation> PhaseOps(const DriftPhase& phase, uint64_t seed,
                                size_t n = kPhaseOps) {
  Rng rng(seed);
  return GenerateWorkload(phase.spec, n, rng);
}

/// Replays every phase on an adaptive and a static engine (identical
/// streams), running one maintenance cycle per phase, and asserts the batch
/// results never diverge. Returns total chunks re-partitioned.
size_t ReplayScenario(const DriftScenario& scenario, CasperEngine& adaptive,
                      CasperEngine& fixed) {
  size_t repartitioned = 0;
  for (size_t i = 0; i < scenario.phases.size(); ++i) {
    const auto ops = PhaseOps(scenario.phases[i], 100 + i);
    const BatchResult a = adaptive.ApplyBatch(ops);
    const BatchResult b = fixed.ApplyBatch(ops);
    EXPECT_EQ(a.query_checksum, b.query_checksum)
        << scenario.name << " phase " << scenario.phases[i].label;
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.deletes, b.deletes);
    EXPECT_EQ(a.updates, b.updates);
    repartitioned += adaptive.maintenance()->RunCycle().chunks_repartitioned;
    EXPECT_EQ(adaptive.num_rows(), fixed.num_rows());
  }
  return repartitioned;
}

/// Post-scenario deep comparison: a probe grid of range counts/sums and a
/// point-lookup batch must agree exactly between the two engines.
void ExpectSameAnswers(const CasperEngine& a, const CasperEngine& b) {
  constexpr int kProbes = 64;
  for (int i = 0; i < kProbes; ++i) {
    const Value lo = kDomain * i / kProbes;
    const Value hi = lo + kDomain / 16;
    EXPECT_EQ(a.CountBetween(lo, hi), b.CountBetween(lo, hi)) << lo;
    EXPECT_EQ(a.SumPayloadBetween(lo, hi, {0, 1}),
              b.SumPayloadBetween(lo, hi, {0, 1}))
        << lo;
  }
  std::vector<Value> probes;
  for (Value v = 0; v < kDomain; v += 997) probes.push_back(v);
  EXPECT_EQ(a.FindBatch(probes), b.FindBatch(probes));
  EXPECT_EQ(a.ScanAll(), b.ScanAll());
}

TEST(MaintenanceTest, ShiftingHotRangeTriggersRelayout) {
  const TableData data = MakeData();
  const DriftScenario scenario = ShiftingHotRange(0, kDomain, 4);
  Rng trng(1);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions aopts = BaseOptions(data, &training);
  aopts.maintenance = ManualMaintenance();
  CasperEngine adaptive = CasperEngine::Open(std::move(aopts));
  CasperEngine fixed = CasperEngine::Open(BaseOptions(data, &training));

  ASSERT_NE(adaptive.maintenance(), nullptr);
  const uint64_t before = adaptive.layout().LayoutFingerprint();
  ASSERT_EQ(before, fixed.layout().LayoutFingerprint());

  const size_t repartitioned = ReplayScenario(scenario, adaptive, fixed);
  EXPECT_GE(repartitioned, 1u) << "drifted hot range never triggered a re-layout";
  EXPECT_NE(adaptive.layout().LayoutFingerprint(), before);
  // The static engine replayed a read-only stream: its geometry is frozen.
  EXPECT_EQ(fixed.layout().LayoutFingerprint(), before);

  ExpectSameAnswers(adaptive, fixed);
  adaptive.layout().ValidateInvariants();
  fixed.layout().ValidateInvariants();

  const MaintenanceStats stats = adaptive.maintenance()->stats();
  EXPECT_EQ(stats.cycles, scenario.phases.size());
  EXPECT_GE(stats.chunks_evaluated, stats.chunks_repartitioned);
  EXPECT_EQ(stats.chunks_repartitioned, repartitioned);
}

TEST(MaintenanceTest, ReadWriteFlipTriggersRelayout) {
  const TableData data = MakeData();
  const DriftScenario scenario = ReadWriteFlip(0, kDomain);
  Rng trng(2);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions aopts = BaseOptions(data, &training);
  aopts.maintenance = ManualMaintenance();
  CasperEngine adaptive = CasperEngine::Open(std::move(aopts));
  CasperEngine fixed = CasperEngine::Open(BaseOptions(data, &training));

  const size_t repartitioned = ReplayScenario(scenario, adaptive, fixed);
  EXPECT_GE(repartitioned, 1u) << "write-heavy flip never triggered a re-layout";

  ExpectSameAnswers(adaptive, fixed);
  adaptive.layout().ValidateInvariants();
  fixed.layout().ValidateInvariants();
}

TEST(MaintenanceTest, DiurnalBurstKeepsAdaptingUnderDecay) {
  const TableData data = MakeData();
  const DriftScenario scenario = DiurnalBurst(0, kDomain, 2);
  Rng trng(3);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions aopts = BaseOptions(data, &training);
  aopts.maintenance = ManualMaintenance();
  // Aggressive decay: each regime should dominate the live model within a
  // cycle or two of returning, instead of averaging day and night forever.
  aopts.maintenance.decay = 0.25;
  CasperEngine adaptive = CasperEngine::Open(std::move(aopts));
  CasperEngine fixed = CasperEngine::Open(BaseOptions(data, &training));

  const size_t repartitioned = ReplayScenario(scenario, adaptive, fixed);
  EXPECT_GE(repartitioned, 1u) << "diurnal burst never triggered a re-layout";

  const MaintenanceStats stats = adaptive.maintenance()->stats();
  EXPECT_EQ(stats.cycles, scenario.phases.size());
  EXPECT_GE(stats.ops_observed, stats.ops_dropped);

  ExpectSameAnswers(adaptive, fixed);
  adaptive.layout().ValidateInvariants();
  fixed.layout().ValidateInvariants();
}

// Read-only queries race RunCycle: every read-only RunMixed batch issued
// while re-partitions are mid-flight must be bit-identical to the pre-drift
// serial answers (re-partitioning preserves the logical row multiset;
// readers on other chunks never block; readers on the swapping chunk wait on
// its latch).
TEST(MaintenanceTest, BitIdenticalDuringRepartitionUnderConcurrentRunner) {
  const TableData data = MakeData();
  const DriftScenario scenario = ShiftingHotRange(0, kDomain, 2);
  Rng trng(4);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions aopts = BaseOptions(data, &training);
  aopts.exec_threads = 4;
  aopts.maintenance = ManualMaintenance();
  CasperEngine engine = CasperEngine::Open(std::move(aopts));
  ASSERT_NE(engine.maintenance(), nullptr);

  // Read-only query stream spanning the whole domain.
  WorkloadSpec qspec = scenario.phases.back().spec;
  qspec.read_target = std::make_shared<UniformDistribution>();
  Rng qrng(5);
  const auto queries = GenerateWorkload(qspec, 1500, qrng);
  const std::vector<uint64_t> expected = engine.RunMixed(queries).results;

  // Churn thread: alternate the observed hotspot between the low and high
  // ends so divergence keeps re-appearing and every cycle has re-layout
  // work, while the main thread hammers concurrent queries.
  const auto low_ops = PhaseOps(scenario.phases.front(), 6, 2500);
  const auto high_ops = PhaseOps(scenario.phases.back(), 7, 2500);
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int k = 0; k < 8; ++k) {
      engine.maintenance()->ObserveAll((k % 2 == 0) ? high_ops : low_ops);
      engine.maintenance()->RunCycle();
    }
    done.store(true);
  });
  size_t batches = 0;
  while (!done.load()) {
    EXPECT_EQ(engine.RunMixed(queries).results, expected)
        << "batch " << batches << " diverged during re-partitioning";
    ++batches;
  }
  churn.join();
  EXPECT_EQ(engine.RunMixed(queries).results, expected);

  EXPECT_GE(engine.maintenance()->stats().chunks_repartitioned, 1u);
  engine.layout().ValidateInvariants();
}

// Mixed reads + writes run through RunMixed while the BACKGROUND service
// re-partitions on its own thread; a static engine replaying the identical
// stream is the serial-equivalence oracle.
TEST(MaintenanceTest, MixedRunnerBitIdenticalUnderBackgroundMaintenance) {
  const TableData data = MakeData();
  const DriftScenario scenario = DiurnalBurst(0, kDomain, 2);
  Rng trng(8);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions aopts = BaseOptions(data, &training);
  aopts.exec_threads = 4;
  aopts.maintenance = ManualMaintenance();
  aopts.maintenance.background = true;
  aopts.maintenance.capture_interval = std::chrono::milliseconds(5);
  CasperEngine adaptive = CasperEngine::Open(std::move(aopts));
  CasperEngine fixed = CasperEngine::Open(BaseOptions(data, &training));
  ASSERT_NE(adaptive.maintenance(), nullptr);

  for (size_t i = 0; i < scenario.phases.size(); ++i) {
    const auto ops = PhaseOps(scenario.phases[i], 200 + i);
    const MixedResult a = adaptive.RunMixed(ops);
    const MixedResult b = fixed.RunMixed(ops);
    EXPECT_EQ(a.results, b.results) << scenario.phases[i].label;
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.deletes, b.deletes);
  }
  adaptive.maintenance()->Stop();
  EXPECT_GE(adaptive.maintenance()->stats().cycles, 1u);

  ExpectSameAnswers(adaptive, fixed);
  adaptive.layout().ValidateInvariants();
  fixed.layout().ValidateInvariants();
}

TEST(MaintenanceTest, DisabledMaintenanceNeverMutatesLayout) {
  const TableData data = MakeData();
  const DriftScenario scenario = ShiftingHotRange(0, kDomain, 3);
  Rng trng(9);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  CasperEngine engine = CasperEngine::Open(BaseOptions(data, &training));
  EXPECT_EQ(engine.maintenance(), nullptr);

  // A heavily drifted read-only stream leaves the geometry untouched.
  const uint64_t before = engine.layout().LayoutFingerprint();
  EXPECT_NE(before, 0u);
  for (size_t i = 0; i < scenario.phases.size(); ++i) {
    engine.ApplyBatch(PhaseOps(scenario.phases[i], 300 + i));
  }
  EXPECT_EQ(engine.layout().LayoutFingerprint(), before);

  // Layouts without partition geometry get no service even when enabled.
  EngineOptions sopts = BaseOptions(data, &training);
  sopts.layout.mode = LayoutMode::kSorted;
  sopts.training = nullptr;
  sopts.maintenance = ManualMaintenance();
  CasperEngine sorted = CasperEngine::Open(std::move(sopts));
  EXPECT_EQ(sorted.maintenance(), nullptr);
  EXPECT_EQ(sorted.layout().LayoutFingerprint(), 0u);
}

// The unified stats surface: per-chunk snapshots line up with the shard
// count, totals move when queries run, and non-partitioned layouts return an
// empty registry.
TEST(MaintenanceTest, StatsSnapshotRegistrySurface) {
  const TableData data = MakeData();
  const DriftScenario scenario = ShiftingHotRange(0, kDomain, 2);
  Rng trng(10);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  CasperEngine engine = CasperEngine::Open(BaseOptions(data, &training));
  const StatsSnapshotRegistry reg0 = engine.layout().StatsSnapshots();
  EXPECT_EQ(reg0.per_chunk.size(), engine.layout().NumShards());

  (void)engine.CountBetween(0, kDomain / 2);
  const StatsSnapshotRegistry reg1 = engine.layout().StatsSnapshots();
  EXPECT_GT(reg1.Totals().partitions_scanned + reg1.Totals().partitions_pruned,
            reg0.Totals().partitions_scanned + reg0.Totals().partitions_pruned);

  EngineOptions nopts = BaseOptions(data, nullptr);
  nopts.layout.mode = LayoutMode::kNoOrder;
  CasperEngine noorder = CasperEngine::Open(std::move(nopts));
  EXPECT_TRUE(noorder.layout().StatsSnapshots().per_chunk.empty());
}

}  // namespace
}  // namespace casper
