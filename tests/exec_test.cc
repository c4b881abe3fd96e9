// Tests for the sharded parallel execution layer (src/exec/): reads fanned
// over a pool must be bit-identical to serial execution on the partitioned
// layouts, every layout's shard merge must be exact, and the batched write
// surface must be indistinguishable from applying the same operations
// one-by-one (randomized, seeded).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "layouts/layout_factory.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/capture.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace casper {
namespace {

std::vector<LayoutMode> AllModes() {
  return {LayoutMode::kNoOrder,   LayoutMode::kSorted,
          LayoutMode::kDeltaStore, LayoutMode::kEquiWidth,
          LayoutMode::kEquiWidthGhost, LayoutMode::kCasper};
}

/// The modes ExecuteScanOnPool takes: the partitioned layout's three.
std::vector<LayoutMode> PartitionedModes() {
  return {LayoutMode::kEquiWidth, LayoutMode::kEquiWidthGhost, LayoutMode::kCasper};
}

struct Fixture {
  hap::Dataset data;
  std::vector<Operation> training;
};

Fixture MakeFixture(size_t rows, uint64_t seed) {
  Fixture f;
  Rng data_rng(seed);
  f.data = hap::MakeDataset(rows, 3, data_rng);
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, f.data.domain_lo,
                            f.data.domain_hi);
  Rng train_rng(seed + 1);
  f.training = GenerateWorkload(spec, 1500, train_rng);
  return f;
}

LayoutBuildOptions ModeOptions(LayoutMode mode, const std::vector<Operation>& training) {
  LayoutBuildOptions opts;
  opts.mode = mode;
  opts.chunk_values = 4096;   // many chunks -> many shards at test scale
  opts.block_values = 128;
  opts.calibrate_costs = false;  // deterministic plans
  opts.training = &training;
  return opts;
}

std::unique_ptr<LayoutEngine> BuildMode(LayoutMode mode, const Fixture& f) {
  return BuildLayout(ModeOptions(mode, f.training), f.data.keys, f.data.payload);
}

std::unique_ptr<PartitionedLayout> BuildPartitioned(LayoutMode mode, const Fixture& f) {
  return BuildPartitionedLayout(ModeOptions(mode, f.training), f.data.keys,
                                f.data.payload);
}

/// Live rows visited by a full scan fanned over `pool` (serial when null).
uint64_t PoolScanAll(const PartitionedLayout& engine, ThreadPool* pool) {
  return ExecuteScanOnPool(engine, ScanSpec::FullScan(), pool).count;
}

/// Live rows summed over every shard's full-scan slice.
uint64_t ShardedScanAll(const LayoutEngine& engine) {
  uint64_t total = 0;
  for (size_t s = 0; s < engine.NumShards(); ++s) {
    total += engine.ScanSpecShard(s, ScanSpec::FullScan()).count;
  }
  return total;
}

/// Seeded mixed op stream covering all six kinds (the HAP named mixes each
/// omit some kinds, so batching edge cases — write runs broken by query and
/// update barriers — are rolled by hand here).
std::vector<Operation> RandomOps(size_t n, Value lo, Value hi, uint64_t seed) {
  Rng rng(seed);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  std::vector<Operation> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 10) {
      op.kind = OpKind::kPointQuery;
      op.a = a;
    } else if (pick < 20) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
    } else if (pick < 28) {
      op.kind = OpKind::kRangeSum;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
    } else if (pick < 62) {
      op.kind = OpKind::kInsert;
      op.a = a;
    } else if (pick < 90) {
      op.kind = OpKind::kDelete;
      op.a = a;
    } else {
      op.kind = OpKind::kUpdate;
      op.a = a;
      op.b = lo + static_cast<Value>(rng.Below(span));
    }
    ops.push_back(op);
  }
  return ops;
}

TEST(ParallelExec, ParallelReadsBitIdenticalToSerialAcrossLayouts) {
  const Fixture f = MakeFixture(30000, 42);
  ThreadPool pool(4);
  const Value lo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - lo) + 1;
  const std::vector<size_t> cols = {0, 1};

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildPartitioned(mode, f);
    EXPECT_EQ(PoolScanAll(*engine, &pool), 30000u);
    EXPECT_EQ(PoolScanAll(*engine, &pool), PoolScanAll(*engine, nullptr));

    Rng qrng(7);
    for (int i = 0; i < 200; ++i) {
      const Value a = lo + static_cast<Value>(qrng.Below(span));
      const Value b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;
      EXPECT_EQ(ExecuteScanOnPool(*engine, ScanSpec::Count(a, b), &pool).count,
                engine->CountRange(a, b));
      EXPECT_EQ(
          ExecuteScanOnPool(*engine, ScanSpec::Sum(a, b, cols), &pool).SumResult(),
          engine->SumPayloadRange(a, b, cols));
      EXPECT_EQ(ExecuteScanOnPool(*engine, ScanSpec::Q6(a, b, 1000, 9000, 8000),
                                  &pool)
                    .SumResult(),
                engine->TpchQ6(a, b, 1000, 9000, 8000));
    }
  }
}

TEST(ParallelExec, PartitionedShardsAreChunks) {
  const Fixture f = MakeFixture(30000, 17);
  auto engine = BuildMode(LayoutMode::kEquiWidthGhost, f);
  // 30000 rows at 4096 values/chunk -> 8 chunks (duplicate-safe cuts can
  // shift boundaries, never the count below ceil).
  EXPECT_GE(engine->NumShards(), 7u);
  EXPECT_EQ(ShardedScanAll(*engine), 30000u);
}

TEST(ParallelExec, EveryLayoutShardMergeIsExact) {
  // 80000 rows: many 4096-value chunks for the partitioned layouts; the
  // single-store layouts are one shard each.
  const Fixture f = MakeFixture(80000, 29);
  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    // The shard decomposition is exact: per-shard scans sum to the rows.
    EXPECT_EQ(ShardedScanAll(*engine), engine->num_rows());
    EXPECT_EQ(engine->ExecuteScan(ScanSpec::FullScan()).count, 80000u);
  }
}

TEST(ParallelExec, ScanAllCoversDomainEdges) {
  // Rows keyed at BOTH integer-domain edges: no half-open [lo, hi) range can
  // cover them all (hi would need kMaxValue + 1), so ScanAll must not be
  // built on one. The seed's CountRange(kMinValue + 1, kMaxValue) silently
  // dropped every row keyed kMinValue or kMaxValue.
  std::vector<Value> keys = {kMinValue, kMinValue, -3, 0,
                             42,        kMaxValue, kMaxValue};
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<Value>(rng.Below(100000)));
  }
  std::vector<std::vector<Payload>> payload(
      3, std::vector<Payload>(keys.size()));
  for (size_t c = 0; c < payload.size(); ++c) {
    for (size_t i = 0; i < keys.size(); ++i) {
      payload[c][i] = static_cast<Payload>(rng.Below(10000));
    }
  }
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, -1000, 100000);
  Rng train_rng(6);
  const auto training = GenerateWorkload(spec, 1000, train_rng);

  ThreadPool pool(3);
  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    const LayoutBuildOptions opts = ModeOptions(mode, training);
    auto engine = BuildLayout(opts, keys, payload);
    EXPECT_EQ(engine->ExecuteScan(ScanSpec::FullScan()).count, keys.size());
    EXPECT_EQ(ShardedScanAll(*engine), keys.size());
    if (!IsPartitionedMode(mode)) continue;
    auto partitioned = BuildPartitionedLayout(opts, keys, payload);
    EXPECT_EQ(PoolScanAll(*partitioned, &pool), keys.size());
  }
}

/// What a per-op replay of a RandomOps stream yields: the write counts and
/// the harness checksum mixing (read results + rows deleted + updates that
/// found their key).
struct ReplayTally {
  size_t inserts = 0;
  size_t deletes = 0;
  size_t updates = 0;
  uint64_t checksum = 0;
};

/// The reference replay: one direct LayoutEngine call per operation, written
/// out here rather than taken from OperationInterpreter, so a fault in the
/// interpreter cannot hide in both sides of a comparison.
ReplayTally DirectReplay(LayoutEngine& engine, const std::vector<Operation>& ops) {
  ReplayTally ref;
  std::vector<Payload> payload;
  for (const Operation& op : ops) {
    switch (op.kind) {
      case OpKind::kPointQuery:
        ref.checksum += engine.PointLookup(op.a, nullptr);
        break;
      case OpKind::kRangeCount:
        ref.checksum += engine.CountRange(op.a, op.b);
        break;
      case OpKind::kRangeSum:
        ref.checksum += static_cast<uint64_t>(engine.SumPayloadRange(op.a, op.b, {0, 1}));
        break;
      case OpKind::kInsert:
        KeyDerivedPayload(op.a, engine.num_payload_columns(), &payload);
        engine.Insert(op.a, payload);
        ++ref.inserts;
        break;
      case OpKind::kDelete:
        ref.deletes += engine.Delete(op.a);
        break;
      case OpKind::kUpdate:
        ref.updates += engine.UpdateKey(op.a, op.b) ? 1 : 0;
        break;
      default:
        ADD_FAILURE() << "RandomOps draws no " << OpKindName(op.kind);
    }
  }
  ref.checksum += ref.deletes + ref.updates;
  return ref;
}

TEST(ApplyBatch, EquivalentToOneByOneAcrossLayouts) {
  const Fixture f = MakeFixture(20000, 99);
  const auto ops =
      RandomOps(3000, f.data.domain_lo, f.data.domain_hi, /*seed=*/1234);
  ThreadPool pool(4);
  const Value lo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - lo) + 1;

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto one_by_one = BuildMode(mode, f);
    auto batched = BuildPartitioned(mode, f);

    const ReplayTally serial_result = DirectReplay(*one_by_one, ops);
    const MixedResult batch_result =
        batched->ApplyBatch(ops.data(), ops.size(), &pool);

    EXPECT_EQ(batch_result.inserts, serial_result.inserts);
    EXPECT_EQ(batch_result.deletes, serial_result.deletes);
    EXPECT_EQ(batch_result.updates, serial_result.updates);
    EXPECT_EQ(batch_result.checksum, serial_result.checksum);
    EXPECT_EQ(batched->num_rows(), one_by_one->num_rows());
    one_by_one->ValidateInvariants();
    batched->ValidateInvariants();

    // Final logical state must agree everywhere, not just on the counters.
    Rng qrng(3);
    for (int i = 0; i < 100; ++i) {
      const Value a = lo + static_cast<Value>(qrng.Below(span));
      const Value b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;
      EXPECT_EQ(batched->CountRange(a, b), one_by_one->CountRange(a, b));
      EXPECT_EQ(batched->SumPayloadRange(a, b, {0, 1}),
                one_by_one->SumPayloadRange(a, b, {0, 1}));
      EXPECT_EQ(batched->PointLookup(a, nullptr),
                one_by_one->PointLookup(a, nullptr));
    }
  }
}

TEST(ApplyBatch, BatchSlicingDoesNotChangeResults) {
  // Same stream, different batch boundaries -> same engine state.
  const Fixture f = MakeFixture(10000, 5);
  const auto ops = RandomOps(2000, f.data.domain_lo, f.data.domain_hi, 77);
  auto a = BuildPartitioned(LayoutMode::kCasper, f);
  auto b = BuildPartitioned(LayoutMode::kCasper, f);

  ReplayTally ra, rb;
  for (size_t begin = 0; begin < ops.size(); begin += 64) {
    const size_t n = std::min<size_t>(64, ops.size() - begin);
    const MixedResult r = a->ApplyBatch(ops.data() + begin, n);
    ra.inserts += r.inserts;
    ra.deletes += r.deletes;
    ra.updates += r.updates;
    ra.checksum += r.checksum;
  }
  for (size_t begin = 0; begin < ops.size(); begin += 97) {
    const size_t n = std::min<size_t>(97, ops.size() - begin);
    const MixedResult r = b->ApplyBatch(ops.data() + begin, n);
    rb.inserts += r.inserts;
    rb.deletes += r.deletes;
    rb.updates += r.updates;
    rb.checksum += r.checksum;
  }
  EXPECT_EQ(ra.inserts, rb.inserts);
  EXPECT_EQ(ra.deletes, rb.deletes);
  EXPECT_EQ(ra.updates, rb.updates);
  EXPECT_EQ(ra.checksum, rb.checksum);
  EXPECT_EQ(a->num_rows(), b->num_rows());
}

TEST(ApplyBatch, PooledBatchSlicesMatchPerOpReplay) {
  const Fixture f = MakeFixture(15000, 21);
  const auto ops = RandomOps(2500, f.data.domain_lo, f.data.domain_hi, 555);
  ThreadPool pool(4);

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto per_op_engine = BuildMode(mode, f);
    auto batch_engine = BuildPartitioned(mode, f);

    const ReplayTally per_op = DirectReplay(*per_op_engine, ops);

    // 128-op slices through the pooled chunk-group path, folded with the
    // harness checksum mixing: query results, rows deleted, updates applied.
    uint64_t checksum = 0;
    for (size_t begin = 0; begin < ops.size(); begin += 128) {
      const size_t n = std::min<size_t>(128, ops.size() - begin);
      checksum += batch_engine->ApplyBatch(ops.data() + begin, n, &pool).checksum;
    }

    EXPECT_EQ(per_op.checksum, checksum);
    EXPECT_EQ(per_op_engine->num_rows(), batch_engine->num_rows());
  }
}

TEST(Capture, ParallelCaptureBitIdenticalToSerial) {
  const Fixture f = MakeFixture(50000, 33);
  std::vector<Value> sorted_keys = f.data.keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());

  WorkloadCapture serial(sorted_keys, 4096, 128);
  WorkloadCapture parallel(sorted_keys, 4096, 128);
  serial.CaptureAll(f.training);
  ThreadPool pool(4);
  parallel.CaptureAll(f.training, &pool);

  ASSERT_EQ(serial.num_chunks(), parallel.num_chunks());
  for (size_t c = 0; c < serial.num_chunks(); ++c) {
    SCOPED_TRACE(c);
    const FrequencyModel& s = serial.models()[c];
    const FrequencyModel& p = parallel.models()[c];
    EXPECT_EQ(s.pq(), p.pq());
    EXPECT_EQ(s.rs(), p.rs());
    EXPECT_EQ(s.sc(), p.sc());
    EXPECT_EQ(s.re(), p.re());
    EXPECT_EQ(s.de(), p.de());
    EXPECT_EQ(s.in(), p.in());
    EXPECT_EQ(s.udf(), p.udf());
    EXPECT_EQ(s.utf(), p.utf());
    EXPECT_EQ(s.udb(), p.udb());
    EXPECT_EQ(s.utb(), p.utb());
    EXPECT_EQ(s.total_operations(), p.total_operations());
  }
}

TEST(CasperEngineExec, ParallelOpenMatchesSerialOpen) {
  const Fixture f = MakeFixture(25000, 63);

  EngineOptions serial_opts;
  serial_opts.keys = f.data.keys;
  serial_opts.payload = f.data.payload;
  serial_opts.training = &f.training;
  serial_opts.layout.mode = LayoutMode::kCasper;
  serial_opts.layout.chunk_values = 4096;
  serial_opts.layout.block_values = 128;
  serial_opts.layout.calibrate_costs = false;
  EngineOptions parallel_opts = serial_opts;
  parallel_opts.exec_threads = 4;

  CasperEngine serial = CasperEngine::Open(std::move(serial_opts));
  CasperEngine parallel = CasperEngine::Open(std::move(parallel_opts));
  EXPECT_EQ(serial.pool(), nullptr);
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->num_threads(), 4u);

  EXPECT_EQ(parallel.ScanAll(), serial.ScanAll());
  const Value lo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - lo) + 1;
  Rng qrng(9);
  for (int i = 0; i < 100; ++i) {
    const Value a = lo + static_cast<Value>(qrng.Below(span));
    const Value b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;
    EXPECT_EQ(parallel.CountBetween(a, b), serial.CountBetween(a, b));
    EXPECT_EQ(parallel.SumPayloadBetween(a, b, {0, 1}),
              serial.SumPayloadBetween(a, b, {0, 1}));
    EXPECT_EQ(parallel.TpchQ6(a, b, 1000, 9000, 8000),
              serial.TpchQ6(a, b, 1000, 9000, 8000));
  }

  // Batched writes through both engines leave identical logical state.
  const auto ops = RandomOps(1500, f.data.domain_lo, f.data.domain_hi, 404);
  const MixedResult rs = serial.RunMixed(ops);
  const MixedResult rp = parallel.RunMixed(ops);
  EXPECT_EQ(rs.inserts, rp.inserts);
  EXPECT_EQ(rs.deletes, rp.deletes);
  EXPECT_EQ(rs.updates, rp.updates);
  EXPECT_EQ(rs.checksum, rp.checksum);
  EXPECT_EQ(serial.num_rows(), parallel.num_rows());
}

}  // namespace
}  // namespace casper
