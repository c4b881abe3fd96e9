// Reproduces paper Fig. 11: partitioning-decision latency vs data size for a
// single optimization job vs chunked sub-problems (100 / 1k / 10k / 100k
// values per chunk... the paper labels lines by chunk count; we label by
// chunk size). Chunking makes the decision cost linear in data size and
// embarrassingly parallel (§6.3); the single job grows superlinearly.
//
// Section 2 extends the figure with the execution-side scalability axis:
// morsel-driven scan fan-out over chunk shards (exec/) at 1/2/4/8 threads on
// the same layout, with a bit-identity check against serial results. Both
// axes — planning and scanning — ride the same per-chunk independence.
//
// Section 3 adds the inter-query-concurrency axis: N independent read
// queries admitted at once to a MixedWorkloadRunner sharing one pool (a
// read-only stream has no conflicts, so every query overlaps every other),
// again with per-query results checked bit-identical to serial.
//
// Section 4 adds the mixed-workload axis: reads + write runs admitted
// together to a MixedWorkloadRunner over the per-chunk latch layer
// (reads overlap ingest; chunk-disjoint write runs commit in parallel), with
// the checksum checked bit-identical to a single-threaded serial replay.
//
// CASPER_SMOKE=1 shrinks every sweep to a tiny iteration and
// CASPER_BENCH_JSON=<path> writes the measured numbers as a flat JSON
// artifact (the CI bench-smoke job uses both).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "model/frequency_model.h"
#include "optimizer/layout_planner.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace casper::bench {
namespace {

FrequencyModel RandomFm(size_t blocks, Rng& rng) {
  FrequencyModel fm(blocks);
  const size_t ops = blocks * 4;
  for (size_t i = 0; i < ops; ++i) {
    switch (rng.Below(3)) {
      case 0:
        fm.AddPointQuery(rng.Below(blocks));
        break;
      case 1:
        fm.AddInsert(rng.Below(blocks));
        break;
      default: {
        size_t a = rng.Below(blocks), b = rng.Below(blocks);
        fm.AddRangeQuery(std::min(a, b), std::max(a, b));
      }
    }
  }
  return fm;
}

double TimePlan(size_t data_size, size_t chunk_values, size_t block_values,
                ThreadPool* pool) {
  Rng rng(data_size ^ chunk_values);
  const size_t chunks = (data_size + chunk_values - 1) / chunk_values;
  std::vector<FrequencyModel> fms;
  fms.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t rows = std::min(chunk_values, data_size - c * chunk_values);
    fms.push_back(RandomFm(std::max<size_t>(1, rows / block_values), rng));
  }
  PlannerOptions opts;
  opts.ghost_fraction = 0.01;
  Stopwatch sw;
  LayoutPlanner::PlanChunks(fms, chunk_values, opts, pool);
  return sw.ElapsedMillis();
}

/// Section 2: scan throughput vs thread count on one fixed layout. Parallel
/// answers are checked bit-identical to serial before any number is printed.
std::vector<size_t> ThreadSweep() {
  return SmokeMode() ? std::vector<size_t>{1, 2}
                     : std::vector<size_t>{1, 2, 4, 8};
}

void ScanThreadsAxis(JsonMetrics* json) {
  std::printf("\n--- threads axis: morsel-driven scan fan-out ---\n");
  const size_t rows = ScaledRows(SmokeMode() ? 200'000 : 4'000'000);
  Rng rng(4242);
  auto data = hap::MakeDataset(rows, 3, rng);

  LayoutBuildOptions opts;
  opts.mode = LayoutMode::kEquiWidthGhost;
  opts.chunk_values = size_t{1} << 16;  // many chunks -> many shards
  auto engine = BuildPartitionedLayout(opts, data.keys, data.payload);

  // Query set: full scans plus wide range counts/sums/Q6 over the domain.
  const Value lo = data.domain_lo;
  const Value hi = data.domain_hi;
  const Value q = (hi - lo) / 8;  // keeps [lo + i*q, hi - i*q/2) non-empty
  const std::vector<size_t> cols = {0, 1};
  const auto run_queries = [&](ThreadPool* pool) {
    const auto scan = [&](const ScanSpec& spec) {
      return ExecuteScanOnPool(*engine, spec, pool);
    };
    uint64_t checksum = scan(ScanSpec::FullScan()).count;
    for (int i = 0; i < 4; ++i) {
      const Value a = lo + i * q;
      const Value b = hi - i * q / 2;
      checksum += scan(ScanSpec::Count(a, b)).count;
      checksum +=
          static_cast<uint64_t>(scan(ScanSpec::Sum(a, b, cols)).SumResult());
      checksum += static_cast<uint64_t>(
          scan(ScanSpec::Q6(a, b, 1000, 9000, 8000)).SumResult());
    }
    return checksum;
  };

  const uint64_t serial_checksum = run_queries(nullptr);
  const size_t rounds = SmokeMode() ? 1 : 5;
  std::printf("%zu rows, %zu shards, %zu queries/round, %zu rounds\n", rows,
              engine->NumShards(), size_t{13}, rounds);
  std::printf("%8s %14s %18s %10s %10s\n", "threads", "time (ms)",
              "values scanned/s", "speedup", "identical");

  double base_ms = 0.0;
  for (const size_t threads : ThreadSweep()) {
    ThreadPool pool(threads);
    // As many untimed pooled rounds as timed ones first, so the row that
    // runs first (the 1-thread baseline) pays none of the engine's one-time
    // warm-up; at full scale that warm-up spans more than one round.
    uint64_t checksum = 0;
    for (size_t r = 0; r < rounds; ++r) checksum = run_queries(&pool);
    Stopwatch sw;
    for (size_t r = 0; r < rounds; ++r) checksum = run_queries(&pool);
    const double ms = sw.ElapsedMillis();
    if (threads == 1) base_ms = ms;
    // 13 queries/round, each touching O(rows) values.
    const double values_per_sec =
        static_cast<double>(rows) * 13.0 * static_cast<double>(rounds) /
        (ms / 1000.0);
    std::printf("%8zu %14.2f %18.3e %9.2fx %10s\n", threads, ms, values_per_sec,
                base_ms / ms, checksum == serial_checksum ? "yes" : "NO!");
    json->Add("scan.threads=" + std::to_string(threads) + ".ms", ms);
  }
  std::printf("(expect: speedup tracking physical cores; results must stay\n"
              " bit-identical to serial at every thread count)\n");
}

/// Section 3: N concurrent queries vs thread count on one fixed layout.
/// Every per-query answer is checked bit-identical to its serial value.
void ConcurrentQueriesAxis(JsonMetrics* json) {
  std::printf("\n--- inter-query axis: N concurrent queries, one pool ---\n");
  const size_t rows = ScaledRows(SmokeMode() ? 200'000 : 2'000'000);
  Rng rng(777);
  auto data = hap::MakeDataset(rows, 3, rng);

  LayoutBuildOptions opts;
  opts.mode = LayoutMode::kEquiWidthGhost;
  opts.chunk_values = size_t{1} << 16;
  auto engine = BuildPartitionedLayout(opts, data.keys, data.payload);

  // Query set: a skewed hybrid read mix — point lookups plus medium and wide
  // range counts/sums, like independent dashboard sessions hitting the
  // same table.
  const Value lo = data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(data.domain_hi - lo) + 1;
  Rng qrng(4243);
  std::vector<Operation> queries;
  for (int i = 0; i < 64; ++i) {
    Operation op;
    const Value a = lo + static_cast<Value>(qrng.Below(span));
    const uint64_t pick = qrng.Below(100);
    if (pick < 40) {
      op.kind = OpKind::kPointQuery;
      op.a = a;
    } else if (pick < 75) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;
    } else {
      op.kind = OpKind::kRangeSum;
      op.a = a;
      op.b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;
    }
    queries.push_back(op);
  }

  const auto serial_results =
      MixedWorkloadRunner(nullptr).Run(*engine, queries).results;
  const size_t rounds = SmokeMode() ? 1 : 5;
  std::printf("%zu rows, %zu shards, %zu concurrent queries/round, %zu rounds\n",
              rows, engine->NumShards(), queries.size(), rounds);
  std::printf("%8s %14s %14s %10s %10s\n", "threads", "time (ms)", "queries/s",
              "speedup", "identical");

  double base_ms = 0.0;
  for (const size_t threads : ThreadSweep()) {
    ThreadPool pool(threads);
    const MixedWorkloadRunner runner(&pool);
    // Untimed warm-up rounds, as on the scan axis.
    std::vector<uint64_t> results;
    for (size_t r = 0; r < rounds; ++r) {
      results = runner.Run(*engine, queries).results;
    }
    Stopwatch sw;
    for (size_t r = 0; r < rounds; ++r) {
      results = runner.Run(*engine, queries).results;
    }
    const double ms = sw.ElapsedMillis();
    if (threads == 1) base_ms = ms;
    const double qps = static_cast<double>(queries.size()) *
                       static_cast<double>(rounds) / (ms / 1000.0);
    std::printf("%8zu %14.2f %14.1f %9.2fx %10s\n", threads, ms, qps,
                base_ms / ms, results == serial_results ? "yes" : "NO!");
    json->Add("interquery.threads=" + std::to_string(threads) + ".ms", ms);
  }
  std::printf("(expect: query throughput tracking physical cores; per-query\n"
              " answers must stay bit-identical to serial at every width)\n");
}

/// Section 4: mixed workload (reads + write runs) vs thread count. Writes
/// mutate the engine, so every width times the first pass of a fresh engine,
/// after an untimed warm-up pass on a twin built from the same rows (pool
/// threads, allocator and caches warm, engine state untouched). The serial
/// reference replays the stream once on its own engine, and every timed
/// pass's checksum must match it bit for bit.
void MixedWorkloadAxis(JsonMetrics* json) {
  std::printf("\n--- mixed axis: reads overlapping ingest, one pool ---\n");
  const size_t rows = ScaledRows(SmokeMode() ? 200'000 : 2'000'000);
  Rng rng(888);
  auto data = hap::MakeDataset(rows, 3, rng);

  LayoutBuildOptions opts;
  opts.mode = LayoutMode::kEquiWidthGhost;
  opts.chunk_values = size_t{1} << 16;

  // A hybrid stream: the HAP generator's skewed mix of point/range reads
  // with insert/delete/update bursts.
  const auto spec =
      hap::MakeSpec(hap::Workload::kHybridSkewed, data.domain_lo, data.domain_hi);
  Rng op_rng(4244);
  const auto ops = GenerateWorkload(spec, NumOps(SmokeMode() ? 500 : 4000), op_rng);

  HarnessOptions serial_opts;
  serial_opts.record_latency = false;
  const HarnessResult serial =
      RunWorkload(*BuildLayout(opts, data.keys, data.payload), ops, serial_opts);

  std::printf("%zu rows, %zu ops/round (hybrid skewed), first pass of a fresh "
              "engine after a warm-up pass on its twin\n",
              rows, ops.size());
  std::printf("%8s %14s %14s %10s %10s\n", "threads", "time (ms)", "ops/s",
              "speedup", "identical");
  double base_ms = 0.0;
  for (const size_t threads : ThreadSweep()) {
    ThreadPool pool(threads);
    HarnessOptions mixed_opts = serial_opts;
    mixed_opts.pool = &pool;
    RunWorkloadMixed(*BuildPartitionedLayout(opts, data.keys, data.payload), ops,
                     mixed_opts);
    auto engine = BuildPartitionedLayout(opts, data.keys, data.payload);
    Stopwatch sw;
    const HarnessResult mixed = RunWorkloadMixed(*engine, ops, mixed_opts);
    const double ms = sw.ElapsedMillis();
    if (threads == 1) base_ms = ms;
    const double ops_per_sec =
        static_cast<double>(ops.size()) / (ms / 1000.0);
    std::printf("%8zu %14.2f %14.1f %9.2fx %10s\n", threads, ms, ops_per_sec,
                base_ms / ms, mixed.checksum == serial.checksum ? "yes" : "NO!");
    json->Add("mixed.threads=" + std::to_string(threads) + ".ms", ms);
  }
  std::printf("(expect: mixed throughput tracking cores as disjoint chunks\n"
              " overlap; the checksum must match the serial replay exactly)\n");
}

int Main() {
  PrintHeader("Figure 11", "partitioning decision latency vs data size");
  JsonMetrics json;
  const size_t block_values = 2048;
  ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  std::printf("block = %zu values; parallelism = %zu threads\n", block_values,
              pool.num_threads());
  std::printf("%14s %16s %16s %16s %16s\n", "data size", "single job (ms)",
              "chunk=64K (ms)", "chunk=256K (ms)", "chunk=1M (ms)");
  const size_t e_max = SmokeMode() ? 18 : 26;
  for (size_t e = 16; e <= e_max; e += 2) {
    const size_t n = size_t{1} << e;
    // The single job is O((N/B)^2) in the DP (the BIP the paper feeds Mosek
    // is cubic); cap it where it gets slow, like the paper's truncated line.
    const double single = n <= (size_t{1} << 24)
                              ? TimePlan(n, n, block_values, nullptr)
                              : -1.0;
    const double c64k = TimePlan(n, size_t{1} << 16, block_values, &pool);
    const double c256k = TimePlan(n, size_t{1} << 18, block_values, &pool);
    const double c1m = TimePlan(n, size_t{1} << 20, block_values, &pool);
    if (single >= 0) {
      std::printf("%14zu %16.2f %16.2f %16.2f %16.2f\n", n, single, c64k, c256k,
                  c1m);
    } else {
      std::printf("%14zu %16s %16.2f %16.2f %16.2f\n", n, "(skipped)", c64k,
                  c256k, c1m);
    }
    json.Add("plan.n=" + std::to_string(n) + ".chunk64k.ms", c64k);
  }
  std::printf("(expect: single job superlinear; chunked linear in data size — the\n"
              " paper partitions 1e9 values in ~10s with 64 cores via chunking)\n");

  // Planning threads axis: same chunked problem, varying pool width.
  std::printf("\n--- threads axis: parallel per-chunk layout solving ---\n");
  const size_t plan_n = SmokeMode() ? size_t{1} << 18 : size_t{1} << 24;
  std::printf("%8s %16s %10s\n", "threads", "chunk=64K (ms)", "speedup");
  double plan_base = 0.0;
  for (const size_t threads : ThreadSweep()) {
    ThreadPool plan_pool(threads);
    const double ms = TimePlan(plan_n, size_t{1} << 16, block_values, &plan_pool);
    if (threads == 1) plan_base = ms;
    std::printf("%8zu %16.2f %9.2fx\n", threads, ms, plan_base / ms);
    json.Add("plan.threads=" + std::to_string(threads) + ".ms", ms);
  }

  ScanThreadsAxis(&json);
  ConcurrentQueriesAxis(&json);
  MixedWorkloadAxis(&json);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace casper::bench

int main() { return casper::bench::Main(); }
