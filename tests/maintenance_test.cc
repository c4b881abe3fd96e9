// Online adaptive re-layout: drift scenarios against the maintenance
// service. The contract under test, per scenario:
//   (1) drift that invalidates the trained layout actually triggers a
//       re-partition (the capture → detect loop closes);
//   (2) query results stay bit-identical to an untouched engine replaying
//       the same stream before/during/after re-partitions — including
//       read-only and mixed RunMixed batches while the swap is mid-flight;
//   (3) engines with maintenance disabled (or layouts without partition
//       geometry) never mutate their layout;
//   (4) the cycle's capture step builds exactly the models a capture over a
//       sorted copy of the live keys would, and reads no cold chunk that no
//       observed op routes into.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "layouts/partitioned.h"
#include "maintenance/layout_maintenance.h"
#include "persist/io.h"
#include "util/rng.h"
#include "workload/capture.h"
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
    const MixedResult a = adaptive.RunMixed(ops);
    const MixedResult b = fixed.RunMixed(ops);
    EXPECT_EQ(a.checksum, b.checksum)
        << scenario.name << " phase " << scenario.phases[i].label;
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.deletes, b.deletes);
    EXPECT_EQ(a.updates, b.updates);
    repartitioned += adaptive.maintenance()->RunCycle().chunks_repartitioned;
    EXPECT_EQ(adaptive.num_rows(), fixed.num_rows());
  }
  return repartitioned;
}

/// Post-scenario deep comparison: a probe grid of range counts/sums and of
/// point lookups must agree exactly between the two engines.
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
  for (Value v = 0; v < kDomain; v += 997) EXPECT_EQ(a.Find(v), b.Find(v)) << v;
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
    engine.RunMixed(PhaseOps(scenario.phases[i], 300 + i));
  }
  EXPECT_EQ(engine.layout().LayoutFingerprint(), before);
}

// The unified stats surface: per-chunk snapshots line up with the shard
// count, and totals move when queries run.
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
}

// A cycle that finds fewer buffered ops than the noise gate leaves them in
// the ring: the next cycle captures them together with its own.
TEST(MaintenanceTest, NoiseGateKeepsObservationsForNextCycle) {
  const TableData data = MakeData();
  const DriftScenario scenario = ShiftingHotRange(0, kDomain, 2);
  Rng trng(11);
  const auto training = GenerateWorkload(scenario.training, kTrainingOps, trng);

  EngineOptions opts = BaseOptions(data, &training);
  opts.maintenance = ManualMaintenance();
  opts.maintenance.min_cycle_ops = 32;
  CasperEngine engine = CasperEngine::Open(std::move(opts));
  LayoutMaintenanceService* service = engine.maintenance();
  ASSERT_NE(service, nullptr);

  const auto ops = PhaseOps(scenario.phases.back(), 12, 40);
  service->ObserveAll(std::vector<Operation>(ops.begin(), ops.begin() + 20));
  const MaintenanceCycleReport first = service->RunCycle();
  EXPECT_EQ(first.ops_captured, 0u);
  EXPECT_EQ(first.chunks_evaluated, 0u);

  service->ObserveAll(std::vector<Operation>(ops.begin() + 20, ops.end()));
  const MaintenanceCycleReport second = service->RunCycle();
  EXPECT_EQ(second.ops_captured, 40u);
  EXPECT_GE(second.chunks_evaluated, 1u);

  const MaintenanceStats stats = service->stats();
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_EQ(stats.ops_observed, 40u);
  EXPECT_EQ(stats.ops_dropped, 0u);
  EXPECT_GT(stats.capture_ns, 0u);
}

// --- Capture step against a sorted-key reference -----------------------------

constexpr size_t kCapChunks = 5;
constexpr size_t kCapChunkRows = 1000;
constexpr size_t kCapPartitions = 10;
constexpr size_t kCapBlockValues = 64;

/// 5 chunks x 1000 rows, 10 partitions each and no ghost slots (so the first
/// insert into a chunk grows it). Chunk c holds keys [2000c, 2000c + 2000)
/// with some duplicates.
PartitionedTable MakeCaptureTable() {
  const size_t rows = kCapChunks * kCapChunkRows;
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload(1);
  for (size_t i = 0; i < rows; ++i) {
    const Value key = static_cast<Value>(4 * (i / 2) + (i % 2 == 1 && i % 5 == 1));
    keys.push_back(key);
    payload[0].push_back(static_cast<Payload>(key % 1000));
  }
  std::vector<PartitionedTable::ChunkLayoutSpec> specs(kCapChunks);
  for (auto& spec : specs) {
    spec.partition_sizes.assign(kCapPartitions, kCapChunkRows / kCapPartitions);
  }
  return PartitionedTable::Build(std::move(keys), std::move(payload),
                                 std::move(specs));
}

std::string CaptureTestDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "casper_maintenance_" + tag +
                          "_" + std::to_string(::getpid());
  std::system(("rm -rf " + dir).c_str());
  EXPECT_TRUE(persist::EnsureDir(dir).ok());
  return dir;
}

void ExpectSameModel(const FrequencyModel& got, const FrequencyModel& want,
                     size_t chunk) {
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << "chunk " << chunk;
  EXPECT_EQ(got.pq(), want.pq()) << "chunk " << chunk;
  EXPECT_EQ(got.rs(), want.rs()) << "chunk " << chunk;
  EXPECT_EQ(got.sc(), want.sc()) << "chunk " << chunk;
  EXPECT_EQ(got.re(), want.re()) << "chunk " << chunk;
  EXPECT_EQ(got.de(), want.de()) << "chunk " << chunk;
  EXPECT_EQ(got.in(), want.in()) << "chunk " << chunk;
  EXPECT_EQ(got.udf(), want.udf()) << "chunk " << chunk;
  EXPECT_EQ(got.utf(), want.utf()) << "chunk " << chunk;
  EXPECT_EQ(got.udb(), want.udb()) << "chunk " << chunk;
  EXPECT_EQ(got.utb(), want.utb()) << "chunk " << chunk;
  EXPECT_EQ(got.total_operations(), want.total_operations()) << "chunk " << chunk;
}

TEST(MaintenanceTest, CycleCaptureMatchesSortedSnapshot) {
  PartitionedTable table = MakeCaptureTable();
  // Chunk 0 loses its top keys, so keys just above its last live key still
  // route to it. Chunk 1 grows. Chunk 2 is emptied. Chunk 3 loses a few rows
  // and is evicted below. Chunk 4 receives rows from chunk 1.
  for (Value k = 1900; k < 2000; ++k) {
    while (table.Delete(k) > 0) {
    }
  }
  for (Value k = 2002; k < 2400; k += 8) table.Insert(k, {7});
  for (Value k = 4000; k < 6000; ++k) {
    while (table.Delete(k) > 0) {
    }
  }
  for (Value k = 6000; k < 6400; k += 12) table.Delete(k);
  for (Value k = 2400; k < 2440; k += 4) ASSERT_TRUE(table.UpdateKey(k, k + 6001));
  EXPECT_GT(table.CoherentStatsSnapshot(1).grows, 0u);
  ASSERT_EQ(table.RankKeysInChunk(2, nullptr, 0, nullptr), 0u);

  // The reference input: live keys collected chunk by chunk and sorted, the
  // empty chunk left out — what the build-time capture ranks against.
  std::vector<std::vector<Value>> per_chunk(kCapChunks);
  for (size_t c = 0; c < kCapChunks; ++c) {
    per_chunk[c] = table.SnapshotChunkRows(c).keys;
  }
  std::vector<Value> sorted_keys;
  std::vector<size_t> chunks;
  std::vector<size_t> rows;
  Value chunk0_last = kMinValue;
  for (size_t c = 0; c < kCapChunks; ++c) {
    std::sort(per_chunk[c].begin(), per_chunk[c].end());
    if (per_chunk[c].empty()) continue;
    if (c == 0) chunk0_last = per_chunk[c].back();
    chunks.push_back(c);
    rows.push_back(per_chunk[c].size());
    sorted_keys.insert(sorted_keys.end(), per_chunk[c].begin(), per_chunk[c].end());
  }
  ASSERT_EQ(chunks, (std::vector<size_t>{0, 1, 3, 4}));
  ASSERT_EQ(table.ChunkFor(chunk0_last + 1), 0u);

  const std::string dir = CaptureTestDir("capture");
  ASSERT_TRUE(table.EvictChunk(3, dir + "/chunk_3.cspr"));
  ASSERT_FALSE(table.ChunkResident(3));

  std::vector<Operation> ops;
  const auto op = [&ops](OpKind kind, Value a, Value b = 0) {
    Operation o;
    o.kind = kind;
    o.a = a;
    o.b = b;
    ops.push_back(o);
  };
  // Past chunk 0's last live key, inside the emptied chunk, below the first
  // and above the last chunk, and at a chunk's routing bound.
  op(OpKind::kPointQuery, chunk0_last + 1);
  op(OpKind::kInsert, chunk0_last + 3);
  op(OpKind::kPointQuery, 5000);
  op(OpKind::kDelete, 4100);
  op(OpKind::kPointQuery, -1000);
  op(OpKind::kInsert, 1 << 20);
  op(OpKind::kPointQuery, 1999);
  // Ranges spanning chunks (including the whole domain), cross-chunk updates.
  op(OpKind::kRangeCount, -50, 20000);
  op(OpKind::kRangeSum, 1500, 6500);
  op(OpKind::kRangeMax, chunk0_last + 1, 4500);
  op(OpKind::kUpdate, 2100, 8100);
  op(OpKind::kUpdate, 9000, 100);
  op(OpKind::kUpdate, 4500, 6100);
  Rng rng(21);
  for (int i = 0; i < 3000; ++i) {
    const Value a = static_cast<Value>(rng.Next() % 10400) - 200;
    const Value b = a + static_cast<Value>(rng.Next() % 5000);
    switch (rng.Next() % 6) {
      case 0:
        op(OpKind::kPointQuery, a);
        break;
      case 1:
        op(OpKind::kRangeCount, a, b);
        break;
      case 2:
        op(OpKind::kInsert, a);
        break;
      case 3:
        op(OpKind::kDelete, a);
        break;
      case 4:
        op(OpKind::kUpdate, a, static_cast<Value>(rng.Next() % 10400) - 200);
        break;
      default:
        op(OpKind::kRangeAvg, a, a + static_cast<Value>(rng.Next() % 300));
        break;
    }
  }

  const uint64_t cold_reads = table.CoherentStatsSnapshot(3).disk_reads;
  const CycleCapture got = CaptureCycle(table, ops, kCapBlockValues);
  // The cold chunk is read once for all the ops routing into it.
  EXPECT_EQ(table.CoherentStatsSnapshot(3).disk_reads, cold_reads + 1);

  WorkloadCapture want(sorted_keys, rows, kCapBlockValues);
  want.CaptureAll(ops);
  EXPECT_EQ(got.chunks, chunks);
  EXPECT_EQ(got.rows, rows);
  ASSERT_EQ(got.models.size(), want.models().size());
  for (size_t i = 0; i < got.models.size(); ++i) {
    ExpectSameModel(got.models[i], want.models()[i], chunks[i]);
  }
  std::system(("rm -rf " + dir).c_str());
}

// Traffic on resident chunks only: the cycle (capture, solve and any
// re-partition) reads nothing from the tier files of the evicted chunks.
TEST(MaintenanceTest, CycleReadsNoUntouchedColdChunk) {
  PartitionedLayout layout(LayoutMode::kCasper, MakeCaptureTable());
  const std::string dir = CaptureTestDir("cold");
  PartitionedTable& table = layout.mutable_table();
  ASSERT_TRUE(table.EvictChunk(1, dir + "/chunk_1.cspr"));
  ASSERT_TRUE(table.EvictChunk(3, dir + "/chunk_3.cspr"));

  LayoutMaintenanceService service(&layout, ManualMaintenance(),
                                   PlannerOptions(), kCapBlockValues);
  // Chunks 0, 2 and 4 hold keys [0, 2000), [4000, 6000) and [8000, 10000).
  Rng rng(31);
  std::vector<Operation> ops;
  for (int i = 0; i < 600; ++i) {
    const Value base = static_cast<Value>(4000 * (rng.Next() % 3));
    Operation o;
    o.a = base + static_cast<Value>(rng.Next() % 1800);
    o.b = o.a + static_cast<Value>(rng.Next() % 150);
    o.kind = (i % 3 == 0) ? OpKind::kRangeSum
                          : (i % 3 == 1 ? OpKind::kPointQuery : OpKind::kInsert);
    ops.push_back(o);
  }
  service.ObserveAll(ops);

  const ChunkStatsSnapshot before = table.StatsSnapshots().Totals();
  const MaintenanceCycleReport report = service.RunCycle();
  const ChunkStatsSnapshot after = table.StatsSnapshots().Totals();
  EXPECT_EQ(report.ops_captured, ops.size());
  EXPECT_GE(report.chunks_evaluated, 1u);
  EXPECT_EQ(after.disk_reads, before.disk_reads);
  EXPECT_EQ(after.disk_bytes_read, before.disk_bytes_read);
  EXPECT_FALSE(table.ChunkResident(1));
  EXPECT_FALSE(table.ChunkResident(3));
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace casper
