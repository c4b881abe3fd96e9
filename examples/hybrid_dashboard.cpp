// Scenario from the paper's introduction: an analytics dashboard over a
// continuously ingested table — analytical range scans over the whole
// history plus point lookups and a firehose of inserts on recent data.
// We tune Casper offline from yesterday's workload (the "index advisor"
// positioning of §1) and compare against the delta-store design a modern
// column store would use.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/hap.h"

using namespace casper;

int main() {
  const size_t rows = 1 << 20;
  Rng rng(11);
  hap::Dataset data = hap::MakeDataset(rows, 2, rng);

  // The dashboard workload: 30% point lookups on recent orders, 15% range
  // aggregates (1% selectivity), 54% inserts, 1% key corrections.
  WorkloadSpec spec;
  spec.domain_lo = data.domain_lo;
  spec.domain_hi = data.domain_hi;
  spec.mix = {.point_query = 0.30, .range_sum = 0.15, .insert = 0.54,
              .update = 0.01};
  spec.read_target = std::make_shared<HotspotDistribution>(0.8, 0.2, 0.9);
  spec.write_target = std::make_shared<HotspotDistribution>(0.7, 0.3, 0.9);
  spec.range_selectivity = 0.01;

  // Yesterday's trace trains the layout; today's trace is what actually runs.
  Rng yesterday(100), today(200);
  auto training = GenerateWorkload(spec, 10000, yesterday);
  auto live = GenerateWorkload(spec, 10000, today);

  std::printf("dashboard table: %zu rows, workload: 45%% reads / 55%% writes\n\n",
              rows);
  std::printf("%-16s %12s %12s %12s %12s %12s\n", "layout", "Q1 (us)", "Q3 (us)",
              "Q4 (us)", "Kops/s", "mem amp");
  for (const LayoutMode mode :
       {LayoutMode::kCasper, LayoutMode::kDeltaStore, LayoutMode::kSorted}) {
    // BuildLayout builds the baselines too; the engine facade opens only
    // the partitioned modes.
    LayoutBuildOptions opts;
    opts.mode = mode;
    opts.training = &training;
    const auto layout = BuildLayout(opts, data.keys, data.payload);
    HarnessResult r = RunWorkload(*layout, live);
    const auto mem = layout->MemoryStats();
    std::printf("%-16s %12.2f %12.2f %12.3f %12.1f %11.3fx\n",
                std::string(layout->name()).c_str(),
                r.Rec(OpKind::kPointQuery).MeanMicros(),
                r.Rec(OpKind::kRangeSum).MeanMicros(),
                r.Rec(OpKind::kInsert).MeanMicros(),
                r.ThroughputOpsPerSec() / 1000.0, mem.Amplification());
  }
  // The overnight analytics window: ingest pauses and the same dashboard
  // queries run read-only, on the partitions the training workload chose.
  {
    WorkloadSpec analytics = spec;
    analytics.mix = {.range_sum = 1.0};
    Rng tonight(300);
    auto overnight = GenerateWorkload(analytics, 3000, tonight);
    EngineOptions opts;
    opts.keys = data.keys;
    opts.payload = data.payload;
    opts.training = &training;
    opts.layout.mode = LayoutMode::kCasper;
    CasperEngine engine = CasperEngine::Open(std::move(opts));
    HarnessResult r = RunWorkload(engine.layout(), overnight);
    std::printf("\novernight analytics (read-only range sums on Casper): "
                "%.2f us/query\n",
                r.Rec(OpKind::kRangeSum).MeanMicros());
  }
  // The history tail goes cold: cap resident memory at ~a quarter of the
  // table and let the tier manager push cold chunks to disk. The dashboard
  // keeps querying the full history — evicted chunks answer straight off
  // their chunk files — and the tiering counters show the disk traffic.
  // Maintenance drives the cycles: each one re-captures the dashboard's
  // queries (reading no cold chunk they miss), re-solves, and ends with the
  // tier pass; its stage timers show where the cycle time went.
  {
    const std::string dir =
        "/tmp/casper_dashboard_store_" + std::to_string(::getpid());
    std::system(("rm -rf " + dir).c_str());
    EngineOptions opts;
    opts.keys = data.keys;
    opts.payload = data.payload;
    opts.layout.mode = LayoutMode::kEquiWidthGhost;
    // Eight chunks: tiering granularity — the budget holds the two hottest.
    opts.layout.chunk_values = rows / 8;
    opts.persist.storage_dir = dir;
    const int64_t table_bytes = static_cast<int64_t>(
        rows * (sizeof(Value) + data.payload.size() * sizeof(Payload)));
    // A third of the raw table: room for the two hot chunks plus their ghost
    // slots (an exact quarter would evict a hot chunk over a few spare KiB).
    const int64_t budget = table_bytes / 3;
    opts.persist.memory_budget_bytes = budget;
    opts.maintenance.enabled = true;
    CasperEngine engine = CasperEngine::Open(std::move(opts));

    // Today's dashboard traffic hits recent keys; the tier pass at the end of
    // each maintenance cycle decides who stays resident.
    const Value recent_lo =
        data.domain_hi - (data.domain_hi - data.domain_lo) / 5;
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (int i = 0; i < 200; ++i) {
        (void)engine.CountBetween(recent_lo + i, data.domain_hi - i);
      }
      engine.maintenance()->RunCycle();
    }
    int64_t history_sum = engine.SumPayloadBetween(
        data.domain_lo, data.domain_hi, {0});  // full-history scan, partly cold
    const ChunkStatsSnapshot t = engine.layout().StatsSnapshots().Totals();
    std::printf("\ntiered dashboard (budget %.0f%% of table): sum(history)=%lld\n"
                "  %zu evictions, %zu promotions, %zu disk reads, "
                "%.2f MiB read back\n",
                100.0 * static_cast<double>(budget) /
                    static_cast<double>(table_bytes),
                static_cast<long long>(history_sum),
                static_cast<size_t>(t.evictions),
                static_cast<size_t>(t.promotions),
                static_cast<size_t>(t.disk_reads),
                static_cast<double>(t.disk_bytes_read) / (1024.0 * 1024.0));
    const MaintenanceStats m = engine.maintenance()->stats();
    std::printf("  maintenance: %zu cycles, %zu chunks evaluated, %zu "
                "re-partitioned; capture %.2f ms, solve %.2f ms, "
                "re-partition %.2f ms\n",
                static_cast<size_t>(m.cycles),
                static_cast<size_t>(m.chunks_evaluated),
                static_cast<size_t>(m.chunks_repartitioned), m.capture_ns / 1e6,
                m.solve_ns / 1e6, m.repartition_ns / 1e6);
    std::system(("rm -rf " + dir).c_str());
  }
  std::printf("\nCasper trades ~1%% extra memory (ghost values) for write costs\n"
              "close to an append-only store while keeping reads partitioned.\n");
  return 0;
}
