// Concurrency tests for the post-ChunkStats-race read surface: mixed
// concurrent queries over all six layouts must produce checksums
// bit-identical to serial execution, relaxed-atomic access counters must not
// lose increments, and the sorted and delta-store range reads must count a
// long duplicate run (with tombstones and delta rows) exactly once. Built to
// run clean
// under ThreadSanitizer (-DCASPER_TSAN=ON): sizes are moderate and every
// assertion is deterministic.
#include <memory>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "layouts/delta_store.h"
#include "layouts/layout_factory.h"
#include "layouts/partitioned.h"
#include "layouts/sorted.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace casper {
namespace {

std::vector<LayoutMode> AllModes() {
  return {LayoutMode::kNoOrder,   LayoutMode::kSorted,
          LayoutMode::kDeltaStore, LayoutMode::kEquiWidth,
          LayoutMode::kEquiWidthGhost, LayoutMode::kCasper};
}

/// The modes the mixed runner takes: the partitioned layout's three.
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
  f.training = GenerateWorkload(spec, 1000, train_rng);
  return f;
}

LayoutBuildOptions ModeOptions(LayoutMode mode, const Fixture& f) {
  LayoutBuildOptions opts;
  opts.mode = mode;
  opts.chunk_values = 4096;
  opts.block_values = 128;
  opts.calibrate_costs = false;
  opts.training = &f.training;
  return opts;
}

std::unique_ptr<LayoutEngine> BuildMode(LayoutMode mode, const Fixture& f) {
  return BuildLayout(ModeOptions(mode, f), f.data.keys, f.data.payload);
}

std::unique_ptr<PartitionedLayout> BuildPartitioned(LayoutMode mode, const Fixture& f) {
  return BuildPartitionedLayout(ModeOptions(mode, f), f.data.keys, f.data.payload);
}

/// Seeded read-only stream: point queries, range counts, range sums.
std::vector<Operation> ReadOnlyOps(size_t n, Value lo, Value hi, uint64_t seed) {
  Rng rng(seed);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  std::vector<Operation> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 40) {
      op.kind = OpKind::kPointQuery;
      op.a = a;
    } else if (pick < 70) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
    } else {
      op.kind = OpKind::kRangeSum;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Serial reference replay of a read-only stream against a const engine —
/// the same value mixing as the harness checksum.
uint64_t SerialChecksum(const LayoutEngine& engine,
                        const std::vector<Operation>& ops,
                        const std::vector<size_t>& cols) {
  uint64_t checksum = 0;
  for (const Operation& op : ops) {
    switch (op.kind) {
      case OpKind::kPointQuery:
        checksum += engine.PointLookup(op.a, nullptr);
        break;
      case OpKind::kRangeCount:
        checksum += engine.CountRange(op.a, op.b);
        break;
      case OpKind::kRangeSum:
        checksum += static_cast<uint64_t>(engine.SumPayloadRange(op.a, op.b, cols));
        break;
      default:
        break;
    }
  }
  return checksum;
}

// The core inter-query test: N query streams running on raw std::threads
// against one shared, quiescent engine — the exact access pattern that raced
// on the mutable ChunkStats counters before they became relaxed atomics.
// Under TSan this is the canary; under any build the checksums must match
// the serial replay bit-for-bit.
TEST(ConcurrentQueries, RawThreadsOverSharedEngineMatchSerial) {
  const Fixture f = MakeFixture(25000, 7);
  const std::vector<size_t> cols = {0, 1};
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 300;

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);

    std::vector<std::vector<Operation>> streams;
    std::vector<uint64_t> expected;
    for (size_t t = 0; t < kThreads; ++t) {
      streams.push_back(ReadOnlyOps(kOpsPerThread, f.data.domain_lo,
                                    f.data.domain_hi, 1000 + t));
      expected.push_back(SerialChecksum(*engine, streams.back(), cols));
    }

    std::vector<uint64_t> actual(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        actual[t] = SerialChecksum(*engine, streams[t], cols);
      });
    }
    for (auto& th : threads) th.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(actual[t], expected[t]) << "thread " << t;
    }
    engine->ValidateInvariants();
  }
}

TEST(ConcurrentQueries, RunnerResultsBitIdenticalToSerialAcrossLayouts) {
  const Fixture f = MakeFixture(25000, 21);
  ThreadPool pool(4);
  const MixedWorkloadRunner runner(&pool);
  const MixedWorkloadRunner serial_runner(nullptr);
  const std::vector<size_t> cols = {0, 1};
  const auto queries = ReadOnlyOps(400, f.data.domain_lo, f.data.domain_hi, 99);

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildPartitioned(mode, f);
    const auto serial = serial_runner.Run(*engine, queries).results;
    const auto parallel = runner.Run(*engine, queries).results;
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      EXPECT_EQ(parallel[q], serial[q]) << "query " << q;
    }
    // And per-query results match issuing each query alone.
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(serial[q],
                SerialChecksum(*engine, {queries[q]}, cols));
    }
  }
}

TEST(ConcurrentQueries, HarnessConcurrentChecksumMatchesSerialReplay) {
  const Fixture f = MakeFixture(20000, 5);
  ThreadPool pool(4);
  const auto ops = ReadOnlyOps(500, f.data.domain_lo, f.data.domain_hi, 77);

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildPartitioned(mode, f);

    HarnessOptions serial_opts;
    serial_opts.record_latency = false;
    const HarnessResult serial = RunWorkload(*engine, ops, serial_opts);
    // Both replays apply ops through OperationInterpreter; the direct calls
    // keep a reference outside it.
    EXPECT_EQ(serial.checksum, SerialChecksum(*engine, ops, DefaultSumColumns(*engine)));

    HarnessOptions conc_opts = serial_opts;
    conc_opts.pool = &pool;
    const HarnessResult concurrent = RunWorkloadMixed(*engine, ops, conc_opts);
    EXPECT_EQ(concurrent.checksum, serial.checksum);
  }
}

// A read-only RunMixed is the facade's inter-query path: on a quiescent
// engine every answer equals the serial facade call for that query.
TEST(ConcurrentQueries, EngineReadOnlyRunMixedMatchesSerialFacade) {
  const Fixture f = MakeFixture(20000, 31);
  EngineOptions opts;
  opts.keys = f.data.keys;
  opts.payload = f.data.payload;
  opts.training = &f.training;
  opts.layout.mode = LayoutMode::kCasper;
  opts.layout.chunk_values = 4096;
  opts.layout.block_values = 128;
  opts.layout.calibrate_costs = false;
  opts.exec_threads = 4;
  CasperEngine engine = CasperEngine::Open(std::move(opts));

  const auto queries = ReadOnlyOps(300, f.data.domain_lo, f.data.domain_hi, 404);
  const MixedResult run = engine.RunMixed(queries);
  ASSERT_EQ(run.results.size(), queries.size());
  const auto cols = DefaultSumColumns(engine.layout());
  for (size_t q = 0; q < queries.size(); ++q) {
    const Operation& op = queries[q];
    uint64_t expected = 0;
    switch (op.kind) {
      case OpKind::kPointQuery:
        expected = engine.Find(op.a);
        break;
      case OpKind::kRangeCount:
        expected = engine.CountBetween(op.a, op.b);
        break;
      default:
        expected =
            static_cast<uint64_t>(engine.SumPayloadBetween(op.a, op.b, cols));
        break;
    }
    EXPECT_EQ(run.results[q], expected) << "query " << q;
  }
}

// Atomic counters must not lose increments: T threads x K point probes each
// bump partitions_scanned by exactly one per probe. With the old plain
// uint64_t fields this loses updates (and is UB); with relaxed atomics the
// total is exact under any interleaving.
TEST(ConcurrentQueries, StatsCountersLoseNoIncrements) {
  const Fixture f = MakeFixture(20000, 13);
  auto engine = BuildPartitioned(LayoutMode::kEquiWidthGhost, f);
  PartitionedTable& table = engine->mutable_table();
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    table.mutable_key_chunk(c).stats().Clear();
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kProbes = 2000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      const uint64_t span =
          static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
      for (size_t i = 0; i < kProbes; ++i) {
        const Value key = f.data.domain_lo + static_cast<Value>(rng.Below(span));
        engine->PointLookup(key, nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every PointLookup routes to exactly one partition of exactly one chunk
  // and bumps partitions_scanned once.
  uint64_t scanned = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    scanned += table.key_chunk(c).StatsSnapshot().partitions_scanned;
  }
  EXPECT_EQ(scanned, kThreads * kProbes);
}

/// Row-at-a-time reference over raw rows with key in [lo, hi): the count,
/// the sum of payload columns 0 and 1, and the Q6 shape (columns 0 =
/// quantity, 1 = discount, 2 = price).
struct RangeRef {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t q6 = 0;
};

RangeRef BruteRange(const std::vector<Value>& keys,
                    const std::vector<std::vector<Payload>>& payload, Value lo,
                    Value hi) {
  RangeRef ref;
  uint64_t sum = 0;
  uint64_t q6 = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] < lo || keys[i] >= hi) continue;
    ++ref.count;
    sum += uint64_t{payload[0][i]} + payload[1][i];
    if (payload[1][i] >= 1000 && payload[1][i] <= 9000 && payload[0][i] < 8000) {
      q6 += uint64_t{payload[2][i]} * payload[1][i];
    }
  }
  ref.sum = static_cast<int64_t>(sum);
  ref.q6 = static_cast<int64_t>(q6);
  return ref;
}

/// 40000 rows keyed by position, except a 1000-row duplicate run of kDupKey
/// at positions [16000, 17000); key-derived payloads over three columns.
constexpr size_t kDupRows = 40000;
constexpr Value kDupKey = 16000;

void MakeDuplicateRun(std::vector<Value>* keys,
                      std::vector<std::vector<Payload>>* payload) {
  keys->resize(kDupRows);
  for (size_t i = 0; i < kDupRows; ++i) {
    (*keys)[i] = (i >= 16000 && i < 17000) ? kDupKey : static_cast<Value>(i);
  }
  payload->assign(3, std::vector<Payload>(kDupRows));
  std::vector<Payload> row;
  for (size_t i = 0; i < kDupRows; ++i) {
    KeyDerivedPayload((*keys)[i], 3, &row);
    for (size_t c = 0; c < 3; ++c) (*payload)[c][i] = row[c];
  }
}

// A long duplicate run in the sorted layout: binary-searched range reads
// must count it exactly once, whichever side of it the range starts.
TEST(SortedReads, DuplicateRunMatchesReference) {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;
  MakeDuplicateRun(&keys, &payload);
  SortedLayout layout(keys, payload);

  const std::vector<size_t> cols = {0, 1};
  const std::vector<std::pair<Value, Value>> ranges = {
      {kDupKey, kDupKey + 1},      // exactly the duplicate run
      {kDupKey - 7, kDupKey + 9},  // run plus neighbors
      {0, kDupRows},               // everything
      {16380, 16390},              // keys swallowed by the run
      {kDupKey + 1, kDupKey + 2},  // empty: swallowed by the run
  };
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
    const RangeRef ref = BruteRange(keys, payload, lo, hi);
    EXPECT_EQ(layout.CountRange(lo, hi), ref.count);
    EXPECT_EQ(layout.SumPayloadRange(lo, hi, cols), ref.sum);
    EXPECT_EQ(layout.TpchQ6(lo, hi, 1000, 9000, 8000), ref.q6);
  }
  EXPECT_EQ(layout.CountRange(kDupKey, kDupKey + 1), 1000u);  // the full run
}

// Same shape for the delta store: tombstones in the duplicate run of the
// main store, plus a populated delta buffer.
TEST(DeltaReads, TombstonesAndDeltaMatchReference) {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;
  MakeDuplicateRun(&keys, &payload);
  // 500 inserts stay below the 4096-row merge threshold: the delta stays
  // unmerged for the test.
  DeltaStoreLayout layout(keys, payload);

  // Tombstone part of the duplicate run and land new rows in the delta.
  std::vector<Payload> row;
  KeyDerivedPayload(kDupKey, 3, &row);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(layout.Delete(kDupKey), 1u);
  for (int i = 0; i < 500; ++i) layout.Insert(kDupKey, row);
  ASSERT_EQ(layout.delta_size(), 500u);

  // Reference rows: every duplicate carries the same payload, so the live
  // table is the input plus 200 more copies of the run's row.
  for (int i = 0; i < 200; ++i) {
    keys.push_back(kDupKey);
    for (size_t c = 0; c < 3; ++c) payload[c].push_back(row[c]);
  }
  const std::vector<size_t> cols = {0, 1};
  const std::vector<std::pair<Value, Value>> ranges = {
      {kDupKey, kDupKey + 1}, {kDupKey - 7, kDupKey + 9}, {0, kDupRows},
      {16380, 16390}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
    const RangeRef ref = BruteRange(keys, payload, lo, hi);
    EXPECT_EQ(layout.CountRange(lo, hi), ref.count);
    EXPECT_EQ(layout.SumPayloadRange(lo, hi, cols), ref.sum);
    EXPECT_EQ(layout.TpchQ6(lo, hi, 1000, 9000, 8000), ref.q6);
  }
  // 1000 dups - 300 tombstones + 500 delta rows.
  EXPECT_EQ(layout.PointLookup(kDupKey, nullptr), 1200u);
}

}  // namespace
}  // namespace casper
