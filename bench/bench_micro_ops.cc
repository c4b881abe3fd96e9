// Google-benchmark micro-benchmarks for the storage-engine primitives the
// cost model prices: partition scans (SR), ripple steps (RR+RW), partition
// index probes, the chunk's five operations, and a table insert stream that
// ripples ghost blocks through three payload columns. These are the numbers
// CalibrateEngineCosts feeds the optimizer (paper §4.5).
//
// This binary also carries the KERNEL-THROUGHPUT AXIS: a hand-timed
// comparison of the seed element-at-a-time scan loops against the
// vectorized scan kernels (exec/scan_kernels.h), written as
// $CASPER_BENCH_JSON metrics so the CI bench-smoke job
// accumulates per-PR kernel numbers (see RunKernelAxis below and the
// Kernel* google-benchmarks). The chunk-encode axis (RunChunkEncodeAxis)
// times the chunk-file encode and the column profile inside it.
#include <algorithm>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/scan_kernels.h"
#include "exec/scan_spec.h"
#include "layouts/no_order.h"
#include "model/encoding_advisor.h"
#include "persist/chunk_format.h"
#include "storage/chunk_rows.h"
#include "storage/column_chunk.h"
#include "storage/partition_index.h"
#include "storage/partition_scan.h"
#include "storage/table.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace casper {
namespace {

// --- Kernel-throughput axis --------------------------------------------------
// Seed-style loops, replicated verbatim (branch structure included) and
// noinline so the comparison is against what the tree actually shipped
// before the kernel layer, not against whatever the optimizer makes of an
// inlined lambda.

__attribute__((noinline)) uint64_t SeedCountRange(const Value* d, size_t n,
                                                  Value lo, Value hi) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += (d[i] >= lo && d[i] < hi);
  return count;
}

__attribute__((noinline)) int64_t SeedSumPayloadRange(const Value* keys,
                                                      const Payload* pay,
                                                      size_t n, Value lo,
                                                      Value hi) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] >= lo && keys[i] < hi) sum += pay[i];
  }
  return sum;
}

struct KernelFixture {
  std::vector<Value> keys;
  std::vector<Payload> pay;
  Value lo, hi;  // ~50% selectivity: worst case for the branchy seed loop
};

KernelFixture MakeKernelFixture(size_t n) {
  KernelFixture f;
  Rng rng(71);
  f.keys.reserve(n);
  f.pay.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    f.keys.push_back(static_cast<Value>(rng.Below(1u << 20)));
    f.pay.push_back(static_cast<Payload>(rng.Below(10000)));
  }
  f.lo = 1 << 18;
  f.hi = 3 << 18;
  return f;
}

/// Million rows/second for fn() over `rows`-row passes, best of `reps`.
template <typename Fn>
double MeasureMrps(size_t rows, size_t reps, const Fn& fn) {
  double best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    benchmark::DoNotOptimize(fn());
    const double ns = static_cast<double>(sw.ElapsedNanos());
    if (ns < best_ns) best_ns = ns;
  }
  return static_cast<double>(rows) * 1e3 / best_ns;  // rows/ns * 1e3 = Mrows/s
}

/// The kernel axis proper: seed loops vs dispatched kernels,
/// printed and (when CASPER_BENCH_JSON is set) written as flat metrics.
void RunKernelAxis(bench::JsonMetrics* metrics) {
  const size_t rows = bench::SmokeMode() ? (1u << 15) : (1u << 18);
  const size_t reps = bench::SmokeMode() ? 5 : 25;
  const KernelFixture f = MakeKernelFixture(rows);

  const double count_seed = MeasureMrps(rows, reps, [&] {
    return SeedCountRange(f.keys.data(), rows, f.lo, f.hi);
  });
  const double count_simd = MeasureMrps(rows, reps, [&] {
    return kernels::CountInRange(f.keys.data(), rows, f.lo, f.hi);
  });
  const double sum_seed = MeasureMrps(rows, reps, [&] {
    return SeedSumPayloadRange(f.keys.data(), f.pay.data(), rows, f.lo, f.hi);
  });
  const double sum_simd = MeasureMrps(rows, reps, [&] {
    return kernels::SumPayloadInRange(f.keys.data(), f.pay.data(), rows, f.lo,
                                      f.hi);
  });
  std::vector<uint32_t> slots(rows);
  const double filter_simd = MeasureMrps(rows, reps, [&] {
    return kernels::FilterSlots(f.keys.data(), rows, f.lo, f.hi, 0,
                                slots.data());
  });
  // The ScanSpec payload-predicate kernel: refine a ~50%-selective slot list
  // by a closed payload range (the Q6 discount/quantity shape), measured in
  // input slots per second against its scalar reference.
  const size_t nslots =
      kernels::FilterSlots(f.keys.data(), rows, f.lo, f.hi, 0, slots.data());
  std::vector<uint32_t> refined(nslots);
  const double filter_pay_scalar = MeasureMrps(nslots, reps, [&] {
    return kernels::scalar::FilterPayloadInRange(f.pay.data(), slots.data(),
                                                 nslots, 2500, 7500,
                                                 refined.data());
  });
  const double filter_pay_simd = MeasureMrps(nslots, reps, [&] {
    return kernels::FilterPayloadInRange(f.pay.data(), slots.data(), nslots,
                                         2500, 7500, refined.data());
  });

  // Sanity: the kernel agrees with the seed loop before we publish numbers.
  const uint64_t want = SeedCountRange(f.keys.data(), rows, f.lo, f.hi);
  if (kernels::CountInRange(f.keys.data(), rows, f.lo, f.hi) != want) {
    std::fprintf(stderr, "kernel axis: kernel disagrees with the seed loop!\n");
    std::abort();
  }

  bench::PrintHeader("kernel axis", "scan-kernel throughput (Mrows/s)");
  std::printf("  avx2: %s, rows/pass: %zu\n",
              kernels::HaveAvx2() ? "yes" : "no (scalar dispatch)", rows);
  bench::PrintRow("count_range seed loop", count_seed, "Mrows/s");
  bench::PrintRow("count_range kernel", count_simd, "Mrows/s");
  bench::PrintRow("sum_payload seed loop", sum_seed, "Mrows/s");
  bench::PrintRow("sum_payload kernel", sum_simd, "Mrows/s");
  bench::PrintRow("filter_slots kernel", filter_simd, "Mrows/s");
  bench::PrintRow("filter_payload scalar", filter_pay_scalar, "Mslots/s");
  bench::PrintRow("filter_payload kernel", filter_pay_simd, "Mslots/s");
  bench::PrintRow("count speedup", count_simd / count_seed, "x");
  bench::PrintRow("sum_payload speedup", sum_simd / sum_seed, "x");

  metrics->Add("kernel_avx2_active", kernels::HaveAvx2() ? 1.0 : 0.0);
  metrics->Add("kernel_count_range_seed_mrps", count_seed);
  metrics->Add("kernel_count_range_simd_mrps", count_simd);
  metrics->Add("kernel_count_range_speedup", count_simd / count_seed);
  metrics->Add("kernel_sum_payload_seed_mrps", sum_seed);
  metrics->Add("kernel_sum_payload_simd_mrps", sum_simd);
  metrics->Add("kernel_sum_payload_speedup", sum_simd / sum_seed);
  metrics->Add("kernel_filter_slots_mrps", filter_simd);
  metrics->Add("kernel_filter_payload_scalar_mslots", filter_pay_scalar);
  metrics->Add("kernel_filter_payload_simd_mslots", filter_pay_simd);
}

// --- Spec-dispatch-overhead axis ---------------------------------------------
// The ScanSpec redesign routes every legacy read (CountRange & co.) through
// a descriptor build + the ScanSpecShard virtual. This axis pins the facade's
// cost: engine.CountRange (spec path end to end, latch included) against the
// raw kernel call that the pre-redesign virtual body reduced to on this
// layout. The layout keeps its keys in one form, so BOTH paths scan the raw
// array — apples to apples. The facade must cost <= 2%, read as the median
// of 5 rounds, each an interleaved best-of-51 of both paths: one noisy round
// on a loaded host does not decide the gate.

double RunSpecDispatchAxis(bench::JsonMetrics* metrics) {
  // Chunk-sized scan (the unit real queries amortize over): long enough that
  // the per-call facade cost (spec build + virtual dispatch + latch) is
  // measured against a realistic scan body, short enough for smoke CI.
  const size_t rows = 1u << 18;
  const size_t reps = 51;
  const size_t rounds = 5;
  Rng rng(97);
  std::vector<Value> keys;
  keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys.push_back(static_cast<Value>(rng.Below(~uint64_t{0} >> 1)));
  }
  const Value lo = static_cast<Value>(uint64_t{1} << 61);
  const Value hi = static_cast<Value>(uint64_t{3} << 61);  // ~50% selectivity
  const NoOrderLayout layout(std::move(keys), {});
  // Both paths scan the SAME allocation (the layout's column) — heap/THP
  // placement of two separate 2MB buffers would otherwise dwarf the facade
  // cost being measured.
  const Value* column = layout.raw_keys().data();

  // Interleave the two measurements (direct rep, spec rep, ...) so both
  // best-of windows sample the same machine conditions — back-to-back
  // windows would let a turbo/thermal drift masquerade as facade cost.
  struct Round {
    double direct_mrps;
    double spec_mrps;
    double overhead_pct;
  };
  std::vector<Round> measured;
  for (size_t round = 0; round < rounds; ++round) {
    double direct_best_ns = 1e300;
    double spec_best_ns = 1e300;
    for (size_t r = 0; r < reps; ++r) {
      Stopwatch sw;
      benchmark::DoNotOptimize(kernels::CountInRange(column, rows, lo, hi));
      direct_best_ns =
          std::min(direct_best_ns, static_cast<double>(sw.ElapsedNanos()));
      sw.Restart();
      benchmark::DoNotOptimize(layout.CountRange(lo, hi));
      spec_best_ns = std::min(spec_best_ns, static_cast<double>(sw.ElapsedNanos()));
    }
    const double direct_mrps = static_cast<double>(rows) * 1e3 / direct_best_ns;
    const double spec_mrps = static_cast<double>(rows) * 1e3 / spec_best_ns;
    measured.push_back(
        {direct_mrps, spec_mrps, (1.0 - spec_mrps / direct_mrps) * 100.0});
  }
  std::sort(measured.begin(), measured.end(), [](const Round& a, const Round& b) {
    return a.overhead_pct < b.overhead_pct;
  });
  const Round& median = measured[rounds / 2];

  // Sanity before publishing: the facade answers exactly the direct kernel.
  if (layout.CountRange(lo, hi) != kernels::CountInRange(column, rows, lo, hi)) {
    std::fprintf(stderr, "spec axis: facade disagrees with direct kernel!\n");
    std::abort();
  }

  bench::PrintHeader("spec dispatch axis",
                     "ScanSpec facade vs direct kernel (CountRange), median round");
  bench::PrintRow("count_range direct kernel", median.direct_mrps, "Mrows/s");
  bench::PrintRow("count_range via ScanSpec", median.spec_mrps, "Mrows/s");
  bench::PrintRow("facade overhead", median.overhead_pct, "%");
  bench::PrintRow("facade overhead, lowest round", measured.front().overhead_pct, "%");
  bench::PrintRow("facade overhead, highest round", measured.back().overhead_pct, "%");

  metrics->Add("spec_dispatch_direct_mrps", median.direct_mrps);
  metrics->Add("spec_dispatch_spec_mrps", median.spec_mrps);
  metrics->Add("spec_dispatch_overhead_pct", median.overhead_pct);
  // The <= 2% budget is enforced by main after the JSON and the selected
  // google-benchmark rows are written, so a failing run still uploads the
  // numbers that explain the failure.
  return median.overhead_pct;
}

// --- Chunk-encode axis -------------------------------------------------------
// The chunk-file encode an eviction or a store write runs, on the perfbench
// durable_drift chunk shape: 26,215 live rows in 48 key-sorted partitions
// and three uniform [0, 10000) payload columns, encoded by
// ChunkWriter::Encode. The column profile is timed on its own against the
// sort-based count it replaced; the CI gate is that the profile runs at
// >= 5x that reference. Before any number is published the profile is
// checked against the sort-based one (the unit tests pin the encoded words
// against per-value builds).

constexpr size_t kEncodeRows = 26215;
constexpr size_t kEncodeParts = 48;
constexpr size_t kEncodePayloadCols = 3;

ChunkRows MakeEncodeChunk() {
  Rng rng(151);
  ChunkRows rows;
  for (size_t i = 0; i < kEncodeRows; ++i) {
    rows.keys.push_back(static_cast<Value>(rng.Below(4 * kEncodeRows)));
  }
  std::sort(rows.keys.begin(), rows.keys.end());
  size_t begin = 0;
  for (size_t t = 0; t < kEncodeParts; ++t) {
    const size_t end = kEncodeRows * (t + 1) / kEncodeParts;
    PartitionedColumnChunk::Partition p;
    p.begin = begin;
    p.size = end - begin;
    p.cap = p.size;
    p.upper = rows.keys[end - 1];
    rows.parts.push_back(p);
    begin = end;
  }
  rows.payload.assign(kEncodePayloadCols, std::vector<Payload>(kEncodeRows));
  for (std::vector<Payload>& col : rows.payload) {
    for (Payload& v : col) v = static_cast<Payload>(rng.Below(10000));
  }
  return rows;
}

/// The profile as a sorted copy computes it: the reference the timing gate
/// and the sanity check compare against.
PayloadColumnProfile SortProfile(const std::vector<Payload>& values) {
  PayloadColumnProfile p;
  p.rows = values.size();
  if (values.empty()) return p;
  std::vector<Payload> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  p.min = sorted.front();
  p.max = sorted.back();
  p.distinct = static_cast<size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  return p;
}

/// Returns the profile's speedup over the sort-based reference.
double RunChunkEncodeAxis(bench::JsonMetrics* metrics) {
  const size_t reps = bench::SmokeMode() ? 11 : 51;
  const ChunkRows rows = MakeEncodeChunk();

  // Interleaved best-of windows, like the spec axis.
  double encode_best_ns = 1e300;
  double profile_best_ns = 1e300;
  double sort_profile_best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    benchmark::DoNotOptimize(persist::ChunkWriter::Encode(0, rows));
    encode_best_ns = std::min(encode_best_ns, static_cast<double>(sw.ElapsedNanos()));
    sw.Restart();
    for (const std::vector<Payload>& col : rows.payload) {
      benchmark::DoNotOptimize(ProfilePayloadValues(col));
    }
    profile_best_ns = std::min(profile_best_ns, static_cast<double>(sw.ElapsedNanos()));
    sw.Restart();
    for (const std::vector<Payload>& col : rows.payload) {
      benchmark::DoNotOptimize(SortProfile(col));
    }
    sort_profile_best_ns =
        std::min(sort_profile_best_ns, static_cast<double>(sw.ElapsedNanos()));
  }
  const double profiled_rows = static_cast<double>(kEncodeRows * kEncodePayloadCols);
  const double profile_mrps = profiled_rows * 1e3 / profile_best_ns;
  const double sort_profile_mrps = profiled_rows * 1e3 / sort_profile_best_ns;
  const double profile_speedup = profile_mrps / sort_profile_mrps;

  // Sanity before publishing: the profile equals the sort-based one.
  for (const std::vector<Payload>& col : rows.payload) {
    const PayloadColumnProfile got = ProfilePayloadValues(col);
    const PayloadColumnProfile want = SortProfile(col);
    if (got.rows != want.rows || got.distinct != want.distinct ||
        got.min != want.min || got.max != want.max) {
      std::fprintf(stderr, "chunk-encode axis: profile disagrees with the sort!\n");
      std::abort();
    }
  }

  bench::PrintHeader("chunk encode axis",
                     "chunk-file encode (26,215 rows, 48 partitions, 3 payload cols)");
  bench::PrintRow("chunk encode", encode_best_ns / 1e3, "us");
  bench::PrintRow("payload profile", profile_mrps, "Mrows/s");
  bench::PrintRow("payload profile, sort reference", sort_profile_mrps, "Mrows/s");
  bench::PrintRow("payload profile speedup", profile_speedup, "x");

  metrics->Add("chunk_encode_us", encode_best_ns / 1e3);
  metrics->Add("payload_profile_mrps", profile_mrps);
  metrics->Add("payload_profile_sort_mrps", sort_profile_mrps);
  metrics->Add("payload_profile_speedup", profile_speedup);
  // The >= 5x floor is enforced by main after the JSON and the selected
  // google-benchmark rows are written, so a failing run still uploads the
  // numbers that explain the failure.
  return profile_speedup;
}

// Google-benchmark registrations of the same kernels, for --benchmark_filter
// deep dives at arbitrary sizes.
void BM_KernelCountRangeSeed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelFixture f = MakeKernelFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SeedCountRange(f.keys.data(), n, f.lo, f.hi));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelCountRangeSeed)->Arg(1 << 12)->Arg(1 << 18);

void BM_KernelCountRangeSimd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelFixture f = MakeKernelFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::CountInRange(f.keys.data(), n, f.lo, f.hi));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelCountRangeSimd)->Arg(1 << 12)->Arg(1 << 18);

void BM_KernelSumPayloadSeed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelFixture f = MakeKernelFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SeedSumPayloadRange(f.keys.data(), f.pay.data(), n, f.lo, f.hi));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelSumPayloadSeed)->Arg(1 << 12)->Arg(1 << 18);

void BM_KernelSumPayloadSimd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelFixture f = MakeKernelFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::SumPayloadInRange(f.keys.data(), f.pay.data(), n, f.lo, f.hi));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelSumPayloadSimd)->Arg(1 << 12)->Arg(1 << 18);

PartitionedColumnChunk MakeChunk(size_t rows, size_t parts, size_t ghosts_each,
                                 bool dense) {
  Rng rng(1);
  std::vector<Value> values;
  values.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    values.push_back(static_cast<Value>(rng.Below(rows * 4)));
  }
  std::sort(values.begin(), values.end());
  std::vector<size_t> sizes(parts, rows / parts);
  sizes.back() += rows % parts;
  PartitionedColumnChunk::Options opts;
  opts.dense = dense;
  opts.spare_tail = dense ? (1 << 16) : 0;
  return PartitionedColumnChunk::Build(values, sizes,
                                       std::vector<size_t>(parts, ghosts_each),
                                       opts);
}

void BM_PointQuery(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  auto chunk = MakeChunk(1 << 20, parts, 0, false);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chunk.CountEqual(static_cast<Value>(rng.Below(4 << 20))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointQuery)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_RangeCount(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  auto chunk = MakeChunk(1 << 20, parts, 0, false);
  Rng rng(3);
  const Value width = (4 << 20) / 100;  // ~1% selectivity
  // The chunk's count-only partition walk, through the one evaluator.
  const PartitionSource src = PartitionSource::Resident(chunk);
  for (auto _ : state) {
    const Value lo = static_cast<Value>(rng.Below(4 << 20));
    benchmark::DoNotOptimize(
        ScanPartitions(ScanSpec::Count(lo, lo + width), src, &chunk.stats()).count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeCount)->Arg(64)->Arg(256);

// The write rows mutate one chunk for their whole run, so each is pinned to
// a fixed iteration count: every commit then times the same operations over
// the same chunk states. Their ghost chunks fetch free slots in blocks of
// PartitionedColumnChunk::kGhostBatch, and the dense one (BM_InsertWithGhosts/0)
// one slot at a time, as every engine chunk does.
constexpr int64_t kChunkWriteIterations = 20000;

void BM_InsertWithGhosts(benchmark::State& state) {
  const size_t ghosts = static_cast<size_t>(state.range(0));
  auto chunk = MakeChunk(1 << 20, 256, ghosts, ghosts == 0);
  Rng rng(4);
  for (auto _ : state) {
    chunk.Insert(static_cast<Value>(rng.Below(4 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertWithGhosts)
    ->Arg(0)
    ->Arg(64)
    ->Arg(1024)
    ->Iterations(kChunkWriteIterations);

void BM_DeleteAndReinsert(benchmark::State& state) {
  auto chunk = MakeChunk(1 << 20, 256, 16, false);
  Rng rng(5);
  for (auto _ : state) {
    const Value v = static_cast<Value>(rng.Below(4 << 20));
    if (chunk.DeleteOne(v) > 0) chunk.Insert(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeleteAndReinsert)->Iterations(kChunkWriteIterations);

void BM_RippleUpdate(benchmark::State& state) {
  auto chunk = MakeChunk(1 << 20, 256, 16, false);
  Rng rng(6);
  for (auto _ : state) {
    const Value from = static_cast<Value>(rng.Below(4 << 20));
    const Value to = static_cast<Value>(rng.Below(4 << 20));
    benchmark::DoNotOptimize(chunk.Update(from, to));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RippleUpdate)->Iterations(kChunkWriteIterations);

// The storage write layer as the engine runs it: one 2^16-row table chunk in
// 64 partitions with 1% ghost slots, 3 payload columns and the chunk's
// ghost batch of 8, fed a fixed insert stream, 90% of it into the
// top 30% of the key domain. Once a partition's ghosts run out, each insert
// carries a block of ghost slots across the boundaries in between as one
// copy run per boundary, applied to the key and each payload column; once
// the chunk is full, an insert grows it. Reports ns and ripple steps per
// insert, the grows, and the slowest single insert (max_insert_us: a grow's
// exclusive hold); pinned iterations keep the stream and the chunk states
// equal across commits.
constexpr int64_t kTableRippleInserts = 200000;

void BM_TableInsertRipple(benchmark::State& state) {
  const size_t rows = size_t{1} << 16;
  const size_t parts = 64;
  const size_t cols = 3;
  Rng rng(9);
  std::vector<Value> keys(rows);
  for (Value& k : keys) k = static_cast<Value>(rng.Below(rows * 4));
  std::sort(keys.begin(), keys.end());
  std::vector<std::vector<Payload>> payload(cols, std::vector<Payload>(rows));
  for (auto& col : payload) {
    for (Payload& x : col) x = static_cast<Payload>(rng.Below(10000));
  }
  PartitionedTable::ChunkLayoutSpec spec;
  spec.partition_sizes.assign(parts, rows / parts);
  spec.ghosts.assign(parts, rows / 100 / parts);
  PartitionedTable table =
      PartitionedTable::Build(std::move(keys), std::move(payload), {spec});

  const HotspotDistribution skew(0.7, 0.3, 0.9);
  std::vector<Value> stream(static_cast<size_t>(kTableRippleInserts));
  for (Value& k : stream) {
    k = static_cast<Value>(skew.Sample(rng) * static_cast<double>(rows * 4));
  }
  const std::vector<Payload> row(cols, 7);
  const ChunkStatsSnapshot before = table.CoherentStatsSnapshot(0);
  size_t i = 0;
  uint64_t last_ns = 0;
  uint64_t max_insert_ns = 0;
  Stopwatch sw;
  for (auto _ : state) {
    table.Insert(stream[i++], row);
    const uint64_t now = sw.ElapsedNanos();
    max_insert_ns = std::max(max_insert_ns, now - last_ns);
    last_ns = now;
  }
  const ChunkStatsSnapshot after = table.CoherentStatsSnapshot(0);
  const double inserts = static_cast<double>(i);
  state.counters["ns_per_insert"] = static_cast<double>(last_ns) / inserts;
  state.counters["ripple_steps_per_insert"] =
      static_cast<double>(after.ripple_steps - before.ripple_steps) / inserts;
  state.counters["grows"] = static_cast<double>(after.grows - before.grows);
  state.counters["max_insert_us"] = static_cast<double>(max_insert_ns) / 1e3;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInsertRipple)->Iterations(kTableRippleInserts);

void BM_PartitionIndexRoute(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  std::vector<Value> uppers;
  for (size_t i = 1; i <= parts; ++i) {
    uppers.push_back(static_cast<Value>(i * 1000));
  }
  PartitionIndex index(uppers, 9);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Route(static_cast<Value>(rng.Below(parts * 1000 + 500))));
  }
}
BENCHMARK(BM_PartitionIndexRoute)->Arg(64)->Arg(256)->Arg(4096);

void BM_PartitionIndexBinarySearch(benchmark::State& state) {
  const size_t parts = static_cast<size_t>(state.range(0));
  std::vector<Value> uppers;
  for (size_t i = 1; i <= parts; ++i) {
    uppers.push_back(static_cast<Value>(i * 1000));
  }
  PartitionIndex index(uppers, 9);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.RouteBinarySearch(
        static_cast<Value>(rng.Below(parts * 1000 + 500))));
  }
}
BENCHMARK(BM_PartitionIndexBinarySearch)->Arg(64)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace casper

// Custom main: the hand-timed axes run first (prints + JSON for the CI perf
// trajectory), then any google-benchmarks selected on the command line, and
// only then the axes' gates: a missed gate exits nonzero, but never before
// every selected row has run and been written.
int main(int argc, char** argv) {
  // One metrics object for every hand-timed axis: WriteIfRequested truncates
  // the JSON file, so it must run exactly once.
  casper::bench::JsonMetrics metrics;
  casper::RunKernelAxis(&metrics);
  const double spec_overhead_pct = casper::RunSpecDispatchAxis(&metrics);
  const double profile_speedup = casper::RunChunkEncodeAxis(&metrics);
  metrics.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int status = 0;
  if (spec_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "spec axis: facade overhead %.2f%% exceeds the 2%% budget\n",
                 spec_overhead_pct);
    status = 1;
  }
  if (profile_speedup < 5.0) {
    std::fprintf(stderr,
                 "chunk-encode axis: payload profile speedup %.2fx below the "
                 "5x floor\n",
                 profile_speedup);
    status = 1;
  }
  return status;
}
