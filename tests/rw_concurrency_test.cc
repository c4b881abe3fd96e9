// Read-write concurrency tests for the chunk-latch protection layer: mixed
// streams (reads + chunk-disjoint write runs) admitted together must produce
// results bit-identical to a single-threaded serial replay, raw reader
// threads must survive overlapping a live ingest with only bounded-staleness
// effects, a pooled scan racing a row-moving writer must return a state the
// table was actually in, chunk-disjoint write runs must commit in parallel
// and overlapping runs serialize without deadlock, and coherent stats
// snapshots must terminate under a live writer. The read-only sibling of this
// file is concurrency_test.cc; both are built to run clean under
// ThreadSanitizer (-DCASPER_TSAN=ON) with moderate sizes and deterministic
// assertions.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "layouts/layout_factory.h"
#include "layouts/partitioned.h"
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

/// Seeded mixed stream: the read kinds interleaved with insert / delete /
/// update runs (bursty writes, so consecutive writes form multi-op runs).
std::vector<Operation> MixedOps(size_t n, Value lo, Value hi, uint64_t seed) {
  Rng rng(seed);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  std::vector<Operation> ops;
  ops.reserve(n);
  while (ops.size() < n) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 25) {
      op.kind = OpKind::kPointQuery;
      op.a = a;
      ops.push_back(op);
    } else if (pick < 45) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else if (pick < 60) {
      op.kind = OpKind::kRangeSum;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else {
      // A write burst: 1-8 consecutive writes (one write run for the mixed
      // runner, often spanning several chunks).
      const size_t burst = 1 + rng.Below(8);
      for (size_t b = 0; b < burst && ops.size() < n; ++b) {
        Operation w;
        w.a = lo + static_cast<Value>(rng.Below(span));
        const uint64_t wpick = rng.Below(100);
        if (wpick < 60) {
          w.kind = OpKind::kInsert;
        } else if (wpick < 85) {
          w.kind = OpKind::kDelete;
        } else {
          w.kind = OpKind::kUpdate;
          w.b = lo + static_cast<Value>(rng.Below(span));
        }
        ops.push_back(w);
      }
    }
  }
  return ops;
}

/// Single-threaded reference replay with the exact semantics the mixed
/// runner promises: per-op read results, aggregate write counts, and the
/// harness checksum mixing (key-derived insert payloads).
struct SerialRef {
  std::vector<uint64_t> results;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t updates = 0;
  uint64_t checksum = 0;
};

SerialRef SerialReplay(LayoutEngine& engine, const std::vector<Operation>& ops,
                       const std::vector<size_t>& cols) {
  SerialRef ref;
  ref.results.assign(ops.size(), 0);
  std::vector<Payload> payload;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    switch (op.kind) {
      case OpKind::kPointQuery:
        ref.results[i] = engine.PointLookup(op.a, nullptr);
        break;
      case OpKind::kRangeCount:
        ref.results[i] = engine.CountRange(op.a, op.b);
        break;
      case OpKind::kRangeSum:
        ref.results[i] =
            static_cast<uint64_t>(engine.SumPayloadRange(op.a, op.b, cols));
        break;
      case OpKind::kRangeMin:
      case OpKind::kRangeMax:
      case OpKind::kRangeAvg: {
        const ScanSpec spec = SpecForOperation(op, cols);
        ref.results[i] = engine.ExecuteScan(spec).Result(spec.agg);
        break;
      }
      case OpKind::kInsert:
        KeyDerivedPayload(op.a, engine.num_payload_columns(), &payload);
        engine.Insert(op.a, payload);
        ++ref.inserts;
        break;
      case OpKind::kDelete: {
        const size_t d = engine.Delete(op.a);
        ref.deletes += d;
        break;
      }
      case OpKind::kUpdate:
        ref.updates += engine.UpdateKey(op.a, op.b) ? 1 : 0;
        break;
    }
  }
  for (const uint64_t r : ref.results) ref.checksum += r;
  ref.checksum += ref.deletes + ref.updates;
  return ref;
}

// The core guarantee: a mixed stream admitted as chunk groups over
// a real pool produces per-op read results, write aggregates, checksum AND
// final physical state bit-identical to the single-threaded serial replay,
// on every partitioned layout.
TEST(MixedWorkload, RunMatchesSerialReplayAcrossLayouts) {
  const Fixture f = MakeFixture(20000, 11);
  ThreadPool pool(4);
  const MixedWorkloadRunner runner(&pool);
  const std::vector<size_t> cols = {0, 1};
  const auto ops = MixedOps(600, f.data.domain_lo, f.data.domain_hi, 303);

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildPartitioned(mode, f);
    auto serial_engine = BuildMode(mode, f);

    const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
    const MixedResult mixed = runner.Run(*mixed_engine, ops);

    ASSERT_EQ(mixed.results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(mixed.results[i], ref.results[i]) << "op " << i;
    }
    EXPECT_EQ(mixed.inserts, ref.inserts);
    EXPECT_EQ(mixed.deletes, ref.deletes);
    EXPECT_EQ(mixed.updates, ref.updates);
    EXPECT_EQ(mixed.checksum, ref.checksum);

    // Final state: identical row count and range aggregates.
    EXPECT_EQ(mixed_engine->num_rows(), serial_engine->num_rows());
    EXPECT_EQ(mixed_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1),
              serial_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1));
    EXPECT_EQ(
        mixed_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols),
        serial_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols));
    mixed_engine->ValidateInvariants();
  }
}

// A min/max/avg-bearing mixed stream through the chunk-group runner: the new
// aggregate op kinds interleave with write bursts and must stay bit-identical
// to the serial replay (per-op results, aggregates, checksum, final state) —
// the ScanSpec surface composes with the latch-footprint protocol.
TEST(MixedWorkload, AggregateBearingStreamMatchesSerialReplay) {
  const Fixture f = MakeFixture(20000, 47);
  ThreadPool pool(4);
  const MixedWorkloadRunner runner(&pool);
  const std::vector<size_t> cols = {0, 1};

  // Seeded stream over ALL read kinds (including min/max/avg) plus bursty
  // writes, like MixedOps but aggregate-heavy.
  Rng rng(515);
  const Value lo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - lo) + 1;
  std::vector<Operation> ops;
  while (ops.size() < 500) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 55) {
      op.kind = pick < 20   ? OpKind::kRangeMin
                : pick < 40 ? OpKind::kRangeMax
                            : OpKind::kRangeAvg;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else if (pick < 70) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else {
      const size_t burst = 1 + rng.Below(6);
      for (size_t b = 0; b < burst && ops.size() < 500; ++b) {
        Operation w;
        w.a = lo + static_cast<Value>(rng.Below(span));
        if (rng.Below(3) == 0) {
          w.kind = OpKind::kDelete;
        } else {
          w.kind = OpKind::kInsert;
        }
        ops.push_back(w);
      }
    }
  }

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildPartitioned(mode, f);
    auto serial_engine = BuildMode(mode, f);

    const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
    const MixedResult mixed = runner.Run(*mixed_engine, ops);

    ASSERT_EQ(mixed.results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(mixed.results[i], ref.results[i])
          << "op " << i << " kind " << OpKindName(ops[i].kind);
    }
    EXPECT_EQ(mixed.inserts, ref.inserts);
    EXPECT_EQ(mixed.deletes, ref.deletes);
    EXPECT_EQ(mixed.checksum, ref.checksum);
    EXPECT_EQ(mixed_engine->num_rows(), serial_engine->num_rows());
    mixed_engine->ValidateInvariants();
  }
}

// The chunk-group admission on a hand-built stream whose answers depend on
// stream order: a range read over two chunks between writes on both, a
// cross-chunk update between reads of each of its chunks, reads of unwritten
// chunks next to writes elsewhere, and a read-only batch whose reads cross
// chunk boundaries. Per-op results, checksum, row count and layout
// fingerprint must match the serial replay at every pool size, every time.
TEST(MixedWorkload, ChunkGroupsKeepStreamOrder) {
  const Fixture f = MakeFixture(10000, 71);
  LayoutBuildOptions opts = ModeOptions(LayoutMode::kEquiWidthGhost, f);
  opts.chunk_values = 1024;
  const auto build = [&] {
    return BuildPartitionedLayout(opts, f.data.keys, f.data.payload);
  };
  const std::vector<size_t> cols = {0, 1};

  // k(c, off): the off-th key of chunk c's routing range.
  const auto probe = build();
  const PartitionedTable& table = probe->table();
  ASSERT_GE(table.num_chunks(), 8u);
  const auto k = [&](size_t c, Value off) {
    Value lo = f.data.domain_lo;
    Value hi = f.data.domain_hi;
    while (lo < hi) {
      const Value mid = lo + (hi - lo) / 2;
      if (table.ChunkFor(mid) < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo + off;
  };
  const auto op = [](OpKind kind, Value a, Value b = 0) {
    Operation o;
    o.kind = kind;
    o.a = a;
    o.b = b;
    return o;
  };
  using K = OpKind;
  const std::vector<Operation> mixed = {
      // A range read over chunks 1-2, between writes on both.
      op(K::kInsert, k(1, 3)), op(K::kInsert, k(2, 4)),
      op(K::kRangeCount, k(1, 0), k(2, 9)), op(K::kRangeSum, k(1, 0), k(2, 9)),
      op(K::kDelete, k(1, 3)), op(K::kInsert, k(2, 4)),
      op(K::kRangeCount, k(1, 0), k(2, 9)), op(K::kPointQuery, k(2, 4)),
      // A cross-chunk update 3 -> 4, between reads of each chunk.
      op(K::kInsert, k(3, 7)), op(K::kPointQuery, k(3, 7)),
      op(K::kRangeCount, k(4, 0), k(4, 50)), op(K::kUpdate, k(3, 7), k(4, 11)),
      op(K::kPointQuery, k(3, 7)), op(K::kPointQuery, k(4, 11)),
      op(K::kRangeSum, k(4, 0), k(4, 50)), op(K::kUpdate, k(4, 11), k(3, 7)),
      op(K::kRangeCount, k(3, 0), k(3, 50)),
      // Reads of unwritten chunks 6-7, next to writes on chunk 5.
      op(K::kRangeSum, k(6, 0), k(7, 20)), op(K::kInsert, k(5, 2)),
      op(K::kPointQuery, k(7, 1)), op(K::kDelete, k(5, 2)),
      op(K::kRangeMax, k(6, 5), k(6, 90)), op(K::kPointQuery, k(5, 2)),
      op(K::kInsert, k(5, 2)), op(K::kRangeAvg, k(7, 0), k(8, 0)),
      op(K::kRangeCount, k(5, 0), k(5, 3)),
  };
  const std::vector<Operation> reads = {
      op(K::kRangeCount, k(1, 20), k(3, 5)), op(K::kPointQuery, k(2, 0)),
      op(K::kRangeSum, k(2, -3), k(2, 3)), op(K::kRangeMin, k(4, -1), k(6, 1)),
      op(K::kRangeCount, f.data.domain_lo, f.data.domain_hi + 1),
      op(K::kPointQuery, k(5, -1)), op(K::kRangeAvg, k(6, 0), k(7, 1)),
  };

  for (const auto* stream : {&mixed, &reads}) {
    auto serial_engine = build();
    const SerialRef ref = SerialReplay(*serial_engine, *stream, cols);
    for (const size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      const MixedWorkloadRunner runner(&pool);
      for (int rep = 0; rep < 50; ++rep) {
        SCOPED_TRACE(testing::Message() << "stream " << stream->size() << " threads "
                                        << threads << " rep " << rep);
        auto engine = build();
        const MixedResult got = runner.Run(*engine, *stream);
        ASSERT_EQ(got.results, ref.results);
        ASSERT_EQ(got.checksum, ref.checksum);
        ASSERT_EQ(engine->num_rows(), serial_engine->num_rows());
        ASSERT_EQ(engine->LayoutFingerprint(), serial_engine->LayoutFingerprint());
      }
    }
  }
}

// Raw std::threads reading while a writer ingests — the access pattern the
// latch layer exists for. Writers only insert, so every concurrent range
// count must land between the initial and final counts (per-chunk counts are
// monotone under the latch), and the final state must be exact. The writer
// applies each run as one ApplyBatch on the partitioned layouts and one
// Insert at a time on the baselines.
TEST(ReadsDuringWrites, RawReadersOverlapIngestBounded) {
  const Fixture f = MakeFixture(20000, 23);
  const std::vector<size_t> cols = {0, 1};
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi + 1;

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    auto* partitioned = dynamic_cast<PartitionedLayout*>(engine.get());
    const uint64_t before = engine->CountRange(lo, hi);

    // Insert-only write runs with key-derived payloads.
    constexpr size_t kRuns = 20;
    constexpr size_t kRunSize = 50;
    Rng wrng(900);
    const uint64_t span = static_cast<uint64_t>(hi - lo);
    std::vector<std::vector<Operation>> runs(kRuns);
    for (auto& run : runs) {
      for (size_t i = 0; i < kRunSize; ++i) {
        Operation op;
        op.kind = OpKind::kInsert;
        op.a = lo + static_cast<Value>(wrng.Below(span));
        run.push_back(op);
      }
    }

    std::atomic<bool> done{false};
    std::atomic<uint64_t> violations{0};
    constexpr size_t kReaders = 3;
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(7000 + t);
        // Iteration cap: keeps the test bounded on small machines (readers
        // must not starve the writer into the ctest timeout under TSan).
        for (size_t iter = 0; iter < 64 && !done.load(std::memory_order_acquire);
             ++iter) {
          const uint64_t count = engine->CountRange(lo, hi);
          if (count < before || count > before + kRuns * kRunSize) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          // Point lookups and full scans share the same latches.
          const Value key = lo + static_cast<Value>(rng.Below(span));
          engine->PointLookup(key, nullptr);
          const uint64_t all = engine->ExecuteScan(ScanSpec::FullScan()).count;
          if (all < before || all > before + kRuns * kRunSize) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::thread writer([&] {
      std::vector<Payload> payload;
      for (const auto& run : runs) {
        if (partitioned != nullptr) {
          partitioned->ApplyBatch(run.data(), run.size());
          continue;
        }
        for (const Operation& op : run) {
          KeyDerivedPayload(op.a, engine->num_payload_columns(), &payload);
          engine->Insert(op.a, payload);
        }
      }
      done.store(true, std::memory_order_release);
    });
    writer.join();
    for (auto& r : readers) r.join();

    EXPECT_EQ(violations.load(), 0u);
    EXPECT_EQ(engine->CountRange(lo, hi), before + kRuns * kRunSize);
    engine->ValidateInvariants();
  }
}

// A pooled sum racing a writer that deletes and reinserts one row must
// return the sum of a state the table was actually in: the full table, or
// the table minus one toggled row. A scan that latched row windows one at a
// time could read one window before a write and the next after it, and both
// baselines move rows no write touched across window boundaries: NoOrder's
// swap-remove jumps the last row to the front, and every Sorted delete or
// insert shifts each later row by one position. Such a scan counts a row
// twice or not at all. The partitioned layouts sum over the pool; a
// single-store baseline is one shard and sums through ExecuteScan.
TEST(ReadsDuringWrites, PooledSumNeverTearsUnderRowMovingWriter) {
  // 140000 rows: a scan split into 16K- or 64K-row windows would cross
  // several window boundaries here.
  constexpr size_t kRows = 140000;
  // Each layout races the writer for a fixed wall-clock budget rather than
  // a fixed sum count, so the test stays bounded under sanitizers and on a
  // loaded host.
  constexpr auto kBudget = std::chrono::milliseconds(120);
  Fixture f = MakeFixture(kRows, 61);
  // Distinct keys on the same domain: each toggled key names one row.
  for (size_t i = 0; i < kRows; ++i) f.data.keys[i] = static_cast<Value>(4 * i);
  const std::vector<size_t> cols = {0, 1};
  const ScanSpec spec = ScanSpec::Sum(f.data.domain_lo, f.data.domain_hi, cols);
  ThreadPool pool(4);

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    const auto* partitioned = dynamic_cast<const PartitionedLayout*>(engine.get());
    // NoOrder toggles whatever key is at position 0. The first toggle moves
    // the last row to the front and appends the deleted row, so position 0
    // alternates between the first and last input keys. The other layouts
    // toggle the smallest key.
    const std::vector<Value> toggled =
        mode == LayoutMode::kNoOrder
            ? std::vector<Value>{f.data.keys.front(), f.data.keys.back()}
            : std::vector<Value>{f.data.keys.front()};
    const int64_t full = engine->ExecuteScan(spec).SumResult();
    std::vector<std::vector<Payload>> rows(toggled.size());
    std::vector<int64_t> states = {full};
    for (size_t t = 0; t < toggled.size(); ++t) {
      ASSERT_EQ(engine->PointLookup(toggled[t], &rows[t]), 1u);
      states.push_back(full - rows[t][0] - rows[t][1]);
    }

    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
        const size_t t = i % toggled.size();
        engine->Delete(toggled[t]);
        engine->Insert(toggled[t], rows[t]);
      }
    });
    size_t sums = 0;
    size_t torn = 0;
    const auto deadline = std::chrono::steady_clock::now() + kBudget;
    while (std::chrono::steady_clock::now() < deadline) {
      const int64_t sum = partitioned != nullptr
                              ? ExecuteScanOnPool(*partitioned, spec, &pool).SumResult()
                              : engine->ExecuteScan(spec).SumResult();
      if (std::find(states.begin(), states.end(), sum) == states.end()) ++torn;
      ++sums;
    }
    done.store(true, std::memory_order_release);
    writer.join();

    EXPECT_EQ(torn, 0u) << "of " << sums << " pooled sums";
    EXPECT_EQ(engine->ExecuteScan(spec).SumResult(), full);
    engine->ValidateInvariants();
  }
}

// Satellite: two chunk-disjoint write runs committing from two threads at
// once (multi-writer ingest) must land exactly the serial result.
TEST(WriteWriteConflicts, DisjointRunsCommitInParallel) {
  const Fixture f = MakeFixture(25000, 31);
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi;
  const Value mid = lo + (hi - lo) / 2;

  auto parallel_engine = BuildPartitioned(LayoutMode::kEquiWidthGhost, f);
  auto serial_engine = BuildPartitioned(LayoutMode::kEquiWidthGhost, f);
  const PartitionedTable& table = parallel_engine->table();
  ASSERT_GT(table.num_chunks(), 2u);

  // Run A routes strictly below the chunk holding mid, run B strictly
  // above it: provably disjoint chunk footprints (keys are filtered by
  // their actual chunk, so the boundary chunk belongs to neither).
  const size_t mid_chunk = table.ChunkFor(mid);
  ASSERT_GT(mid_chunk, 0u);
  ASSERT_LT(mid_chunk + 1, table.num_chunks());
  auto make_run = [&](Value base, Value limit, bool below, uint64_t seed) {
    Rng rng(seed);
    const uint64_t span = static_cast<uint64_t>(limit - base);
    std::vector<Operation> run;
    while (run.size() < 400) {
      Operation op;
      op.kind = rng.Below(100) < 70 ? OpKind::kInsert : OpKind::kDelete;
      op.a = base + static_cast<Value>(rng.Below(span));
      const size_t c = table.ChunkFor(op.a);
      if (below ? c >= mid_chunk : c <= mid_chunk) continue;
      run.push_back(op);
    }
    return run;
  };
  const auto run_a = make_run(lo, mid, /*below=*/true, 41);
  const auto run_b = make_run(mid + 1, hi, /*below=*/false, 42);

  // Disjointness sanity: the two runs share no chunk.
  std::vector<bool> in_a(table.num_chunks(), false);
  for (const auto& op : run_a) in_a[table.ChunkFor(op.a)] = true;
  for (const auto& op : run_b) ASSERT_FALSE(in_a[table.ChunkFor(op.a)]);

  std::thread t1([&] { parallel_engine->ApplyBatch(run_a.data(), run_a.size()); });
  std::thread t2([&] { parallel_engine->ApplyBatch(run_b.data(), run_b.size()); });
  t1.join();
  t2.join();

  serial_engine->ApplyBatch(run_a.data(), run_a.size());
  serial_engine->ApplyBatch(run_b.data(), run_b.size());

  EXPECT_EQ(parallel_engine->num_rows(), serial_engine->num_rows());
  EXPECT_EQ(parallel_engine->CountRange(lo, hi + 1),
            serial_engine->CountRange(lo, hi + 1));
  const std::vector<size_t> cols = {0, 1};
  EXPECT_EQ(parallel_engine->SumPayloadRange(lo, hi + 1, cols),
            serial_engine->SumPayloadRange(lo, hi + 1, cols));
  parallel_engine->ValidateInvariants();
}

// Satellite: overlapping write runs (same chunks, disjoint key sets) must
// serialize on the chunk latches without deadlock and commute to the serial
// result.
TEST(WriteWriteConflicts, OverlappingRunsSerializeWithoutDeadlock) {
  const Fixture f = MakeFixture(25000, 37);
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi;

  auto parallel_engine = BuildPartitioned(LayoutMode::kCasper, f);
  auto serial_engine = BuildPartitioned(LayoutMode::kCasper, f);

  // Both runs hit the whole domain (same chunks); keys are disjoint (even
  // offsets vs odd offsets), so inserts commute.
  auto make_run = [&](Value parity, uint64_t seed) {
    Rng rng(seed);
    const uint64_t span = static_cast<uint64_t>(hi - lo) / 2;
    std::vector<Operation> run;
    for (size_t i = 0; i < 500; ++i) {
      Operation op;
      op.kind = OpKind::kInsert;
      op.a = lo + 2 * static_cast<Value>(rng.Below(span)) + parity;
      run.push_back(op);
    }
    return run;
  };
  const auto run_even = make_run(0, 51);
  const auto run_odd = make_run(1, 52);

  std::thread t1(
      [&] { parallel_engine->ApplyBatch(run_even.data(), run_even.size()); });
  std::thread t2([&] { parallel_engine->ApplyBatch(run_odd.data(), run_odd.size()); });
  t1.join();
  t2.join();

  serial_engine->ApplyBatch(run_even.data(), run_even.size());
  serial_engine->ApplyBatch(run_odd.data(), run_odd.size());

  EXPECT_EQ(parallel_engine->num_rows(), serial_engine->num_rows());
  EXPECT_EQ(parallel_engine->CountRange(lo, hi + 1),
            serial_engine->CountRange(lo, hi + 1));
  const std::vector<size_t> cols = {0, 1};
  EXPECT_EQ(parallel_engine->SumPayloadRange(lo, hi + 1, cols),
            serial_engine->SumPayloadRange(lo, hi + 1, cols));
  parallel_engine->ValidateInvariants();
}

// CoherentStatsSnapshot takes the chunk's shared latch: equal to the raw
// snapshot when quiescent, and always terminating (each copy taken while no
// writer holds the chunk) while a writer is live.
TEST(StatsSnapshots, CoherentStatsSnapshotUnderWriter) {
  const Fixture f = MakeFixture(20000, 67);
  auto engine = BuildPartitioned(LayoutMode::kEquiWidthGhost, f);
  PartitionedTable& table = engine->mutable_table();

  engine->CountRange(f.data.domain_lo, f.data.domain_hi);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    const ChunkStatsSnapshot raw = table.key_chunk(c).StatsSnapshot();
    const ChunkStatsSnapshot coherent = table.CoherentStatsSnapshot(c);
    EXPECT_EQ(coherent.element_reads, raw.element_reads);
    EXPECT_EQ(coherent.partitions_scanned, raw.partitions_scanned);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(99);
    const uint64_t span =
        static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
    std::vector<Payload> payload;
    for (int i = 0; i < 1000; ++i) {
      const Value key = f.data.domain_lo + static_cast<Value>(rng.Below(span));
      KeyDerivedPayload(key, engine->num_payload_columns(), &payload);
      engine->Insert(key, payload);
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t snapshots = 0;
  for (size_t sweep = 0; sweep < 64 && !done.load(std::memory_order_acquire);
       ++sweep) {
    for (size_t c = 0; c < table.num_chunks(); ++c) {
      table.CoherentStatsSnapshot(c);
      ++snapshots;
    }
  }
  writer.join();
  EXPECT_GT(snapshots, 0u);
}

// The facade: CasperEngine::RunMixed over its own pool matches the serial
// replay and stamps commit timestamps through the engine's oracle.
TEST(MixedWorkload, EngineRunMixedMatchesSerialFacade) {
  const Fixture f = MakeFixture(20000, 53);
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

  auto serial_engine = BuildMode(LayoutMode::kCasper, f);
  const auto ops = MixedOps(500, f.data.domain_lo, f.data.domain_hi, 606);
  const auto cols = DefaultSumColumns(engine.layout());

  const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
  const MixedResult mixed = engine.RunMixed(ops);

  EXPECT_EQ(mixed.checksum, ref.checksum);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(mixed.results[i], ref.results[i]) << "op " << i;
  }
  EXPECT_GT(mixed.last_commit_ts, 0u);  // write runs were stamped
  EXPECT_EQ(engine.num_rows(), serial_engine->num_rows());
}

// Harness plumbing: RunWorkloadMixed's checksum equals the serial harness
// replay, across the partitioned layouts.
TEST(MixedWorkload, HarnessMixedChecksumMatchesSerialReplay) {
  const Fixture f = MakeFixture(20000, 59);
  ThreadPool pool(4);
  const auto ops = MixedOps(500, f.data.domain_lo, f.data.domain_hi, 707);

  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildPartitioned(mode, f);
    auto serial_engine = BuildMode(mode, f);
    auto ref_engine = BuildMode(mode, f);

    HarnessOptions serial_opts;
    serial_opts.record_latency = false;
    const HarnessResult serial = RunWorkload(*serial_engine, ops, serial_opts);
    // Both replays apply ops through OperationInterpreter; SerialReplay's
    // direct calls keep a reference outside it.
    EXPECT_EQ(serial.checksum, SerialReplay(*ref_engine, ops, {0, 1}).checksum);

    HarnessOptions mixed_opts = serial_opts;
    mixed_opts.pool = &pool;
    const HarnessResult mixed = RunWorkloadMixed(*mixed_engine, ops, mixed_opts);
    EXPECT_EQ(mixed.checksum, serial.checksum);
  }
}

// The payload-carrying batch API must be byte-equivalent to sequential
// Insert calls with the same caller-supplied rows, on every partitioned
// layout (placement included — probed via payload lookups and range sums).
TEST(PayloadCarryingWrites, InsertRowsMatchesSequentialInserts) {
  const Fixture f = MakeFixture(15000, 61);
  const std::vector<size_t> cols = {0, 1, 2};
  Rng rng(62);
  const uint64_t span =
      static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
  auto random_payload = [&] {
    return std::vector<Payload>{static_cast<Payload>(rng.Below(10000)),
                                static_cast<Payload>(rng.Below(10000)),
                                static_cast<Payload>(rng.Below(10000))};
  };
  std::vector<Row> rows(300);
  for (auto& row : rows) {
    row.key = f.data.domain_lo + static_cast<Value>(rng.Below(span));
    row.payload = random_payload();
  }

  ThreadPool pool(4);
  for (const LayoutMode mode : PartitionedModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto batch_engine = BuildPartitioned(mode, f);
    auto serial_engine = BuildMode(mode, f);

    batch_engine->InsertRows(rows.data(), rows.size(), &pool);
    for (const Row& row : rows) serial_engine->Insert(row.key, row.payload);

    EXPECT_EQ(batch_engine->num_rows(), serial_engine->num_rows());
    EXPECT_EQ(batch_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1),
              serial_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1));
    EXPECT_EQ(
        batch_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols),
        serial_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols));
    std::vector<Payload> got;
    std::vector<Payload> want;
    for (size_t i = 0; i < rows.size(); i += 37) {
      const Value key = rows[i].key;
      EXPECT_EQ(batch_engine->PointLookup(key, &got),
                serial_engine->PointLookup(key, &want));
      EXPECT_EQ(got, want) << "key " << key;
    }
    batch_engine->ValidateInvariants();
  }
}

}  // namespace
}  // namespace casper
