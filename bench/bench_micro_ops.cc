// Google-benchmark micro-benchmarks for the storage-engine primitives the
// cost model prices: partition scans (SR), ripple steps (RR+RW), partition
// index probes, and the chunk's five operations. These are the numbers
// CalibrateEngineCosts feeds the optimizer (paper §4.5).
//
// This binary also carries the KERNEL-THROUGHPUT AXIS: a hand-timed
// comparison of the seed element-at-a-time scan loops against the
// vectorized scan kernels (exec/scan_kernels.h) and the scan-on-compressed
// path, written as $CASPER_BENCH_JSON metrics so the CI bench-smoke job
// accumulates per-PR kernel numbers (see RunKernelAxis below and the
// Kernel* google-benchmarks).
#include <algorithm>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "exec/scan_kernels.h"
#include "exec/scan_spec.h"
#include "layouts/no_order.h"
#include "storage/column_chunk.h"
#include "storage/partition_index.h"
#include "storage/partition_scan.h"
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

/// The kernel axis proper: seed loops vs dispatched kernels vs compressed,
/// printed and (when CASPER_BENCH_JSON is set) written as flat metrics.
void RunKernelAxis(bench::JsonMetrics* metrics) {
  const size_t rows = bench::SmokeMode() ? (1u << 15) : (1u << 18);
  const size_t reps = bench::SmokeMode() ? 5 : 25;
  const KernelFixture f = MakeKernelFixture(rows);
  const FrameOfReferenceColumn compressed(f.keys, 4096);

  const double count_seed = MeasureMrps(rows, reps, [&] {
    return SeedCountRange(f.keys.data(), rows, f.lo, f.hi);
  });
  const double count_simd = MeasureMrps(rows, reps, [&] {
    return kernels::CountInRange(f.keys.data(), rows, f.lo, f.hi);
  });
  const double count_compressed = MeasureMrps(rows, reps, [&] {
    return compressed.CountRange(f.lo, f.hi);
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

  // Sanity: all three representations agree before we publish numbers.
  const uint64_t want = SeedCountRange(f.keys.data(), rows, f.lo, f.hi);
  if (kernels::CountInRange(f.keys.data(), rows, f.lo, f.hi) != want ||
      compressed.CountRange(f.lo, f.hi) != want) {
    std::fprintf(stderr, "kernel axis: representations disagree!\n");
    std::abort();
  }

  bench::PrintHeader("kernel axis", "scan-kernel throughput (Mrows/s)");
  std::printf("  avx2: %s, rows/pass: %zu\n",
              kernels::HaveAvx2() ? "yes" : "no (scalar dispatch)", rows);
  bench::PrintRow("count_range seed loop", count_seed, "Mrows/s");
  bench::PrintRow("count_range kernel", count_simd, "Mrows/s");
  bench::PrintRow("count_range compressed", count_compressed, "Mrows/s");
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
  metrics->Add("kernel_count_range_compressed_mrps", count_compressed);
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
// layout. Keys are drawn from the full 63-bit domain so the compressed-chunk
// cache's >=2x-compression gate rejects the column and BOTH paths scan the
// raw array — apples to apples. The facade must cost <= 2%.

double RunSpecDispatchAxis(bench::JsonMetrics* metrics) {
  // Chunk-sized scan (the unit real queries amortize over): long enough that
  // the per-call facade cost (spec build + virtual dispatch + latch) is
  // measured against a realistic scan body, short enough for smoke CI.
  const size_t rows = 1u << 18;
  const size_t reps = 51;
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
  double direct_best_ns = 1e300;
  double spec_best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    benchmark::DoNotOptimize(kernels::CountInRange(column, rows, lo, hi));
    direct_best_ns = std::min(direct_best_ns, static_cast<double>(sw.ElapsedNanos()));
    sw.Restart();
    benchmark::DoNotOptimize(layout.CountRange(lo, hi));
    spec_best_ns = std::min(spec_best_ns, static_cast<double>(sw.ElapsedNanos()));
  }
  const double direct_mrps = static_cast<double>(rows) * 1e3 / direct_best_ns;
  const double spec_mrps = static_cast<double>(rows) * 1e3 / spec_best_ns;

  // Sanity before publishing: the facade answers exactly the direct kernel.
  if (layout.CountRange(lo, hi) != kernels::CountInRange(column, rows, lo, hi)) {
    std::fprintf(stderr, "spec axis: facade disagrees with direct kernel!\n");
    std::abort();
  }

  const double overhead_pct = (1.0 - spec_mrps / direct_mrps) * 100.0;
  bench::PrintHeader("spec dispatch axis",
                     "ScanSpec facade vs direct kernel (CountRange)");
  bench::PrintRow("count_range direct kernel", direct_mrps, "Mrows/s");
  bench::PrintRow("count_range via ScanSpec", spec_mrps, "Mrows/s");
  bench::PrintRow("facade overhead", overhead_pct, "%");

  metrics->Add("spec_dispatch_direct_mrps", direct_mrps);
  metrics->Add("spec_dispatch_spec_mrps", spec_mrps);
  metrics->Add("spec_dispatch_overhead_pct", overhead_pct);
  // The <= 2% budget is enforced by the caller AFTER the JSON is written, so
  // a failing run still uploads the numbers that explain the failure.
  return overhead_pct;
}

// --- Packed-payload axis -----------------------------------------------------
// Scan-on-compressed for payload columns: predicate-free sums and closed-
// range filters evaluated on a dictionary-encoded PackedPayloadColumn vs the
// flat-array kernels, on dictionary-friendly data (~1000 distinct values —
// the HAP small-domain payload shape). The sum comparison is the CI-gated
// one: the packed representation must be >= 1.5x the flat kernel, which the
// encode-time prefix-sum blocks guarantee with a wide margin.

double RunPackedPayloadAxis(bench::JsonMetrics* metrics) {
  const size_t rows = 1u << 18;
  const size_t reps = 51;
  Rng rng(131);
  std::vector<Payload> pay;
  pay.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    pay.push_back(static_cast<Payload>(rng.Below(1000)) * 9 + 100);
  }
  const auto packed =
      PackedPayloadColumn::Encode(pay, PayloadEncoding::kDictionary);

  // Interleave the two measurements (flat rep, packed rep, ...) so both
  // best-of windows sample the same machine conditions, like the spec axis.
  double flat_best_ns = 1e300;
  double packed_best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    benchmark::DoNotOptimize(kernels::SumPayload(pay.data(), rows));
    flat_best_ns = std::min(flat_best_ns, static_cast<double>(sw.ElapsedNanos()));
    sw.Restart();
    benchmark::DoNotOptimize(packed->SumRows(0, rows));
    packed_best_ns =
        std::min(packed_best_ns, static_cast<double>(sw.ElapsedNanos()));
  }
  const double flat_mrps = static_cast<double>(rows) * 1e3 / flat_best_ns;
  const double packed_mrps = static_cast<double>(rows) * 1e3 / packed_best_ns;
  const double sum_speedup = packed_mrps / flat_mrps;

  // Closed-range predicate: packed filter (value range rewritten to a code
  // range once, then scanned on the packed words) vs the gather kernel over
  // an identity slot list — the two paths EvalSpecRows picks between.
  const Payload plo_val = 1000;
  const Payload phi_val = 5000;
  uint64_t plo = 0, phi = 0;
  if (!packed->RewritePredicate(plo_val, phi_val, &plo, &phi)) {
    std::fprintf(stderr, "packed axis: predicate rewrite unexpectedly empty\n");
    std::abort();
  }
  std::vector<uint32_t> slots(rows), out_flat(rows), out_packed(rows);
  for (size_t i = 0; i < rows; ++i) slots[i] = static_cast<uint32_t>(i);
  double fflat_best_ns = 1e300;
  double fpacked_best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    benchmark::DoNotOptimize(kernels::FilterPayloadInRange(
        pay.data(), slots.data(), rows, plo_val, phi_val, out_flat.data()));
    fflat_best_ns =
        std::min(fflat_best_ns, static_cast<double>(sw.ElapsedNanos()));
    sw.Restart();
    benchmark::DoNotOptimize(kernels::FilterPackedPayloadInRange(
        packed->words(), 0, rows, packed->bit_width(), plo, phi, 0,
        out_packed.data()));
    fpacked_best_ns =
        std::min(fpacked_best_ns, static_cast<double>(sw.ElapsedNanos()));
  }
  const double filter_flat_mrps = static_cast<double>(rows) * 1e3 / fflat_best_ns;
  const double filter_packed_mrps =
      static_cast<double>(rows) * 1e3 / fpacked_best_ns;

  // Sanity before publishing: both representations agree bit for bit.
  const uint64_t want_sum =
      static_cast<uint64_t>(kernels::SumPayload(pay.data(), rows));
  const size_t want_n = kernels::FilterPayloadInRange(
      pay.data(), slots.data(), rows, plo_val, phi_val, out_flat.data());
  const size_t got_n = kernels::FilterPackedPayloadInRange(
      packed->words(), 0, rows, packed->bit_width(), plo, phi, 0,
      out_packed.data());
  if (packed->SumRows(0, rows) != want_sum || got_n != want_n ||
      !std::equal(out_flat.begin(), out_flat.begin() + static_cast<ptrdiff_t>(want_n),
                  out_packed.begin())) {
    std::fprintf(stderr, "packed axis: representations disagree!\n");
    std::abort();
  }

  bench::PrintHeader("packed payload axis",
                     "packed (dictionary) vs flat payload kernels");
  std::printf("  encoding: dictionary, %zu distinct, %u bits/code, %.1f "
              "bits/value\n",
              packed->dictionary_size(), packed->bit_width(),
              packed->MeanBitsPerValue());
  bench::PrintRow("sum_payload flat kernel", flat_mrps, "Mrows/s");
  bench::PrintRow("sum_payload packed", packed_mrps, "Mrows/s");
  bench::PrintRow("sum_payload packed speedup", sum_speedup, "x");
  bench::PrintRow("filter_payload flat kernel", filter_flat_mrps, "Mrows/s");
  bench::PrintRow("filter_payload packed", filter_packed_mrps, "Mrows/s");

  metrics->Add("packed_payload_mean_bits", packed->MeanBitsPerValue());
  metrics->Add("packed_sum_payload_flat_mrps", flat_mrps);
  metrics->Add("packed_sum_payload_packed_mrps", packed_mrps);
  metrics->Add("packed_sum_payload_speedup", sum_speedup);
  metrics->Add("packed_filter_payload_flat_mrps", filter_flat_mrps);
  metrics->Add("packed_filter_payload_packed_mrps", filter_packed_mrps);
  metrics->Add("packed_filter_payload_speedup",
               filter_packed_mrps / filter_flat_mrps);
  // The >= 1.5x floor is enforced by the caller AFTER the JSON is written,
  // so a failing run still uploads the numbers that explain the failure.
  return sum_speedup;
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
  const std::vector<std::vector<Payload>> no_payload;
  const PartitionSource src = PartitionSource::Resident(chunk, no_payload, nullptr);
  for (auto _ : state) {
    const Value lo = static_cast<Value>(rng.Below(4 << 20));
    benchmark::DoNotOptimize(
        ScanPartitions(ScanSpec::Count(lo, lo + width), src, &chunk.stats()).count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeCount)->Arg(64)->Arg(256);

void BM_InsertWithGhosts(benchmark::State& state) {
  const size_t ghosts = static_cast<size_t>(state.range(0));
  auto chunk = MakeChunk(1 << 20, 256, ghosts, ghosts == 0);
  Rng rng(4);
  for (auto _ : state) {
    chunk.Insert(static_cast<Value>(rng.Below(4 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertWithGhosts)->Arg(0)->Arg(64)->Arg(1024);

void BM_DeleteAndReinsert(benchmark::State& state) {
  auto chunk = MakeChunk(1 << 20, 256, 16, false);
  Rng rng(5);
  for (auto _ : state) {
    const Value v = static_cast<Value>(rng.Below(4 << 20));
    if (chunk.DeleteOne(v) > 0) chunk.Insert(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeleteAndReinsert);

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
BENCHMARK(BM_RippleUpdate);

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

// Custom main: the kernel axis runs first (prints + JSON for the CI perf
// trajectory), then any google-benchmarks selected on the command line.
int main(int argc, char** argv) {
  // One metrics object for both hand-timed axes: WriteIfRequested truncates
  // the JSON file, so it must run exactly once.
  casper::bench::JsonMetrics metrics;
  casper::RunKernelAxis(&metrics);
  const double spec_overhead_pct = casper::RunSpecDispatchAxis(&metrics);
  const double packed_sum_speedup = casper::RunPackedPayloadAxis(&metrics);
  metrics.WriteIfRequested();
  if (spec_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "spec axis: facade overhead %.2f%% exceeds the 2%% budget\n",
                 spec_overhead_pct);
    return 1;
  }
  if (packed_sum_speedup < 1.5) {
    std::fprintf(stderr,
                 "packed axis: packed sum speedup %.2fx below the 1.5x floor\n",
                 packed_sum_speedup);
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
