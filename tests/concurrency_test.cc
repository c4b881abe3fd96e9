// Concurrency tests for the post-ChunkStats-race read surface: mixed
// concurrent queries over all six layouts must produce checksums
// bit-identical to serial execution, relaxed-atomic access counters must not
// lose increments, and the sorted/delta shard splits must stay exact around
// duplicate runs straddling a binary-search split point. Built to run clean
// under ThreadSanitizer (-DCASPER_TSAN=ON): sizes are moderate and every
// assertion is deterministic.
#include <memory>
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

std::unique_ptr<LayoutEngine> BuildMode(LayoutMode mode, const Fixture& f) {
  LayoutBuildOptions opts;
  opts.mode = mode;
  opts.chunk_values = 4096;
  opts.block_values = 128;
  opts.calibrate_costs = false;
  opts.training = &f.training;
  return BuildLayout(opts, f.data.keys, f.data.payload);
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

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    const auto serial = serial_runner.Run(*engine, queries, cols).results;
    const MixedResult run = runner.Run(*engine, queries, cols);
    EXPECT_TRUE(run.quiescent);
    const auto& parallel = run.results;
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

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);

    HarnessOptions serial_opts;
    serial_opts.record_latency = false;
    const HarnessResult serial = RunWorkload(*engine, ops, serial_opts);

    HarnessOptions conc_opts = serial_opts;
    conc_opts.pool = &pool;
    const HarnessResult concurrent = RunWorkloadMixed(*engine, ops, conc_opts);
    EXPECT_EQ(concurrent.checksum, serial.checksum);
  }
}

// A read-only RunMixed is the facade's inter-query path: on a quiescent
// engine every answer equals the serial facade call for that query, and the
// run reports itself quiescent (no outside writer overlapped it).
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
  EXPECT_TRUE(run.quiescent);
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
  auto engine = BuildMode(LayoutMode::kEquiWidthGhost, f);
  auto* pl = dynamic_cast<PartitionedLayout*>(engine.get());
  ASSERT_NE(pl, nullptr);
  PartitionedTable& table = pl->mutable_table();
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

// A duplicate run straddling the sorted layout's binary-search split point:
// positional shard windows must count the run exactly once across the split.
TEST(SortedShards, DuplicateRunStraddlingSplitPoint) {
  constexpr size_t kRows = 40000;
  constexpr Value kDup = 16000;  // run [16000, 17000) straddles shard row 16384
  std::vector<Value> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = (i >= 16000 && i < 17000) ? kDup : static_cast<Value>(i);
  }
  std::vector<std::vector<Payload>> payload(3);
  std::vector<Payload> row;
  for (auto& col : payload) col.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    KeyDerivedPayload(keys[i], 3, &row);
    for (size_t c = 0; c < 3; ++c) payload[c][i] = row[c];
  }
  SortedLayout layout(keys, payload);
  ASSERT_EQ(layout.NumShards(), (kRows + SortedLayout::kShardRows - 1) /
                                    SortedLayout::kShardRows);
  ASSERT_GT(layout.NumShards(), 1u);

  const std::vector<size_t> cols = {0, 1};
  const std::vector<std::pair<Value, Value>> ranges = {
      {kDup, kDup + 1},          // exactly the duplicate run
      {kDup - 7, kDup + 9},      // run plus neighbors
      {0, kRows},                // everything
      {16380, 16390},            // hugging the split row on both sides
      {kDup + 1, kDup + 2},      // empty: swallowed by the run
  };
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t q6 = 0;
    for (size_t s = 0; s < layout.NumShards(); ++s) {
      count += layout.ScanSpecShard(s, ScanSpec::Count(lo, hi)).count;
      sum += layout.ScanSpecShard(s, ScanSpec::Sum(lo, hi, cols)).SumResult();
      q6 += layout.ScanSpecShard(s, ScanSpec::Q6(lo, hi, 1000, 9000, 8000))
                .SumResult();
    }
    EXPECT_EQ(count, layout.CountRange(lo, hi));
    EXPECT_EQ(sum, layout.SumPayloadRange(lo, hi, cols));
    EXPECT_EQ(q6, layout.TpchQ6(lo, hi, 1000, 9000, 8000));
  }
  EXPECT_EQ(layout.CountRange(kDup, kDup + 1), 1000u);  // the full duplicate run
}

// Same shape for the delta store: main-store sub-shards with tombstones in
// the straddling run, plus a populated delta sub-shard.
TEST(DeltaShards, MainWindowsPlusDeltaSumExactly) {
  constexpr size_t kRows = 40000;
  constexpr Value kDup = 16000;
  std::vector<Value> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = (i >= 16000 && i < 17000) ? kDup : static_cast<Value>(i);
  }
  std::vector<std::vector<Payload>> payload(3);
  std::vector<Payload> row;
  for (auto& col : payload) col.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    KeyDerivedPayload(keys[i], 3, &row);
    for (size_t c = 0; c < 3; ++c) payload[c][i] = row[c];
  }
  DeltaStoreLayout::Options dopts;
  dopts.min_merge_rows = 1 << 20;  // keep the delta unmerged for the test
  DeltaStoreLayout layout(keys, payload, dopts);

  // Tombstone part of the duplicate run and land new rows in the delta.
  for (int i = 0; i < 300; ++i) ASSERT_EQ(layout.Delete(kDup), 1u);
  for (int i = 0; i < 500; ++i) {
    KeyDerivedPayload(kDup, 3, &row);
    layout.Insert(kDup, row);
  }
  ASSERT_EQ(layout.delta_size(), 500u);
  ASSERT_GT(layout.NumShards(), 2u);  // main windows + delta sub-shard

  const std::vector<size_t> cols = {0, 1};
  const std::vector<std::pair<Value, Value>> ranges = {
      {kDup, kDup + 1}, {kDup - 7, kDup + 9}, {0, kRows}, {16380, 16390}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t q6 = 0;
    for (size_t s = 0; s < layout.NumShards(); ++s) {
      count += layout.ScanSpecShard(s, ScanSpec::Count(lo, hi)).count;
      sum += layout.ScanSpecShard(s, ScanSpec::Sum(lo, hi, cols)).SumResult();
      q6 += layout.ScanSpecShard(s, ScanSpec::Q6(lo, hi, 1000, 9000, 8000))
                .SumResult();
    }
    EXPECT_EQ(count, layout.CountRange(lo, hi));
    EXPECT_EQ(sum, layout.SumPayloadRange(lo, hi, cols));
    EXPECT_EQ(q6, layout.TpchQ6(lo, hi, 1000, 9000, 8000));
  }
  // 1000 dups - 300 tombstones + 500 delta rows.
  EXPECT_EQ(layout.PointLookup(kDup, nullptr), 1200u);
}

}  // namespace
}  // namespace casper
