// perfbench: the repository's end-to-end benchmark.
//
// Drives CasperEngine through its public facade (Open, Find, Insert/Update/
// Delete, ExecuteScan, RunMixed, maintenance()->RunCycle() and re-Open of a
// store) on one named workload, checks every answer against a reference
// model, and prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// replaces each facade call by the public layer calls the facade makes,
// records a span around each, and reports per-layer metrics instead.
//
//   perfbench --workload oltp_skewed --seed 1 --seconds 5 --trace 0
//             --work-dir <scratch dir> [--trace-out spans.csv]
//
// Load comes from one client thread in a closed loop. Every run has the same
// phases: Open (repeated; setup_s is the median), an untimed warm-up, the
// timed main phase, fixed-size probes of the operation classes the main
// phase lacks, then close and re-open of the store (repeated; recovery_s is
// the median). An in-memory workload gets its store from a checkpoint of the
// live table (persist::CreateStore) and runs its batch probe on the
// re-opened, journaled engine.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/casper_engine.h"
#include "exec/mixed_workload_runner.h"
#include "exec/morsel.h"
#include "layouts/layout_factory.h"
#include "layouts/partitioned.h"
#include "optimizer/layout_planner.h"
#include "persist/durable_store.h"
#include "persist/journal.h"
#include "persist/store.h"
#include "reference.h"
#include "trace.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/capture.h"
#include "workload/drift.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using casper::CasperEngine;
using casper::EngineOptions;
using casper::MixedResult;
using casper::Operation;
using casper::OpKind;
using casper::Rng;
using casper::ScanSpec;
using casper::WorkloadSpec;

// --- Fixed configuration ------------------------------------------------------

/// Twenty chunks, each a twentieth of the key domain: the drift scenario's
/// hot bands ([0.30, 0.55) by day, [0.85, 0.95) by night) cover whole chunks,
/// so re-solves and tier heat track whole chunks.
constexpr size_t kChunks = 20;
constexpr size_t kBlockValues = 512;
constexpr size_t kTrainingOps = 100000;
constexpr size_t kRowBytes = sizeof(Value) + kPayloadCols * sizeof(Payload);

/// Planner access costs (ns per block), measured once with
/// CalibrateEngineCosts(kBlockValues) on the reference machine and pinned:
/// calibrating at every Open measures the machine again, so the costs, and
/// with them the layout, can differ from one Open to the next.
casper::AccessCostConstants PinnedCosts() {
  casper::AccessCostConstants c;
  c.rr = 5.4;
  c.rw = 5.4;
  c.sr = 388.0;
  c.sw = 388.0;
  return c;
}

/// Journal flush policy of every durable engine: one fsync per 256 records,
/// which keeps fsync stalls (well under 1% of batches) out of p99.
constexpr size_t kJournalFsyncEvery = 256;
/// Opens per run; setup_s is their median.
constexpr int kOpens = 7;
/// Re-opens of the closed store per run; recovery_s is their median.
constexpr int kReopens = 15;
/// Operations per RunMixed batch of durable_drift. About one batch in 16, all
/// in day phases, takes ~10 ms instead of ~0.3 ms. Their own latencies vary
/// from run to run by more than the regression bound, which is why
/// batch_p99_us is printed but is not a metric.
constexpr size_t kBatchOps = 128;
constexpr size_t kProbeBatchOps = 16;  ///< operations per batch of a batch probe
constexpr size_t kCycleEveryBatches = 16;   ///< RunCycle cadence of durable_drift
/// Maintenance cycles after a batch probe, each after kCycleEveryBatches
/// more batches (the probe itself runs none, so its latencies are the
/// batches' alone).
constexpr size_t kProbeCycles = 4;
/// durable_drift batches per day phase; a night (ingest) phase runs a third
/// as long, so day batches are the median batch instead of half the batches.
constexpr size_t kPhaseBatches = 48;
/// durable_drift scans, and single calls of the phase's mix, per round (one
/// round is one batch and its companions). With one scan and 3 single calls,
/// read_p99_us rested on fewer than 30 samples beyond it.
constexpr size_t kScansPerRound = 4;
constexpr size_t kSinglesPerRound = 8;
/// Samples a probe takes of a class the main phase lacks. With 2000, p99
/// rested on its 20 largest samples.
constexpr size_t kProbeSamples = 6000;
constexpr size_t kSegmentOps = size_t{1} << 16;  ///< generated, run, checked at once
constexpr size_t kProbeSetFinds = 512;
constexpr size_t kProbeSetScans = 96;

enum class Kind { kOltpSkewed, kHtapScan, kDurableDrift };

struct Config {
  Kind kind;
  const char* name;
  size_t rows;  ///< initial rows
  /// Keys are drawn from [0, domain * rows). oltp_skewed inserts about twice
  /// its initial rows, nearly all into the top 30% of the domain; with the
  /// HAP default of 4 that region fills up, and finding a free key there
  /// slowed the run more than tenfold.
  size_t domain;
  size_t exec_threads;  ///< engine pool (0 = serial)
  bool durable;         ///< journal and foreground maintenance in the main phase
  /// Main-phase operations per second of --seconds: about the throughput
  /// measured on the reference machine, so the timed phase lasts about
  /// --seconds there while both commits of a comparison run the same work.
  double ops_per_second;
};

const Config kConfigs[] = {
    {Kind::kOltpSkewed, "oltp_skewed", size_t{1} << 20, 16, 0, false, 450000},
    {Kind::kHtapScan, "htap_scan", size_t{1} << 20, 4, 2, false, 40000},
    {Kind::kDurableDrift, "durable_drift", size_t{1} << 19, 4, 2, true, 50000},
};

// --- Inputs -----------------------------------------------------------------

struct Dataset {
  std::vector<Value> keys;                    ///< row order shuffled
  std::vector<std::vector<Payload>> payload;  ///< [col][row]
  std::vector<RefRow> sorted_rows;
  Value domain_lo = 0;
  Value domain_hi = 0;
};

size_t ChunkValues(const Config& cfg) { return (cfg.rows + kChunks - 1) / kChunks; }

/// cfg.rows distinct keys with random payloads, handed to Open unsorted.
Dataset MakeData(const Config& cfg, uint64_t seed) {
  const size_t rows = cfg.rows;
  Dataset d;
  Rng rng(seed);
  d.domain_hi = static_cast<Value>(cfg.domain * rows);
  std::vector<Value> keys;
  while (keys.size() < rows) {
    while (keys.size() < rows) keys.push_back(rng.Range(d.domain_lo, d.domain_hi - 1));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  d.sorted_rows.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    d.sorted_rows[i].key = keys[i];
    for (Payload& p : d.sorted_rows[i].p) p = static_cast<Payload>(rng.Below(10000));
  }
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;
  for (size_t i = rows - 1; i > 0; --i) std::swap(order[i], order[rng.Below(i + 1)]);
  d.keys.resize(rows);
  d.payload.assign(kPayloadCols, std::vector<Payload>(rows));
  for (size_t i = 0; i < rows; ++i) {
    const RefRow& r = d.sorted_rows[order[i]];
    d.keys[i] = r.key;
    for (size_t c = 0; c < kPayloadCols; ++c) d.payload[c][i] = r.p[c];
  }
  return d;
}

enum class StepKind : uint8_t { kFind, kWrite, kScan, kBatch, kCycle };

/// One facade call and the answer the reference expects from it.
struct Step {
  StepKind kind = StepKind::kFind;
  Operation op{OpKind::kPointQuery, 0, 0};  ///< kFind / kWrite
  std::array<Payload, kPayloadCols> row{};  ///< payload of a single insert
  uint32_t index = 0;                       ///< kScan / kBatch slot
  uint64_t expect = 0;
  uint64_t expect_count = 0;  ///< kScan row count
};

struct BatchExpect {
  std::vector<uint64_t> results;
  uint64_t checksum = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t updates = 0;
};

struct Segment {
  std::vector<Step> steps;
  std::vector<ScanSpec> scans;
  std::vector<std::vector<Operation>> batches;
  std::vector<BatchExpect> batch_expect;
  size_t ops = 0;     ///< operations, counting each batch by its size
  size_t writes = 0;  ///< write operations, single or inside batches

  void Clear() {
    steps.clear();
    scans.clear();
    batches.clear();
    batch_expect.clear();
    ops = 0;
    writes = 0;
  }
};

/// Find's answer: 0 for a miss, else 1 + the row's payload packed (payload
/// values are below 10000).
uint64_t EncodeFind(size_t count, const Payload* p) {
  if (count == 0) return 0;
  return 1 + p[0] + 10000ull * p[1] + 100000000ull * p[2];
}

/// Payload of a single-row insert: a hash of its key.
std::array<Payload, kPayloadCols> InsertPayload(Value key) {
  std::array<Payload, kPayloadCols> p{};
  uint64_t x = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  for (Payload& v : p) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    v = static_cast<Payload>((x >> 32) % 10000);
  }
  return p;
}

/// Payload the Operation stream gives inserted rows (the engine's
/// key-derived scheme: column c holds |key| * (c + 1) mod 10000).
RefRow KeyDerivedRow(Value key) {
  RefRow r;
  r.key = key;
  const uint64_t base = static_cast<uint64_t>(key < 0 ? -key : key);
  for (size_t c = 0; c < kPayloadCols; ++c) {
    r.p[c] = static_cast<Payload>((base * (c + 1)) % 10000);
  }
  return r;
}

/// The spec an Operation's range read evaluates: sums over the first two
/// payload columns, min/max/avg over the first.
ScanSpec OpSpec(const Operation& op) {
  switch (op.kind) {
    case OpKind::kRangeCount:
      return ScanSpec::Count(op.a, op.b);
    case OpKind::kRangeSum:
      return ScanSpec::Sum(op.a, op.b, {0, 1});
    case OpKind::kRangeMin:
      return ScanSpec::Min(op.a, op.b, 0);
    case OpKind::kRangeMax:
      return ScanSpec::Max(op.a, op.b, 0);
    default:
      return ScanSpec::Avg(op.a, op.b, 0);
  }
}

/// Whether ScanPartial::count is part of the answer (sums leave it unset).
bool CountsRows(casper::AggKind k) {
  return k != casper::AggKind::kSum && k != casper::AggKind::kSumProduct;
}

bool IsWrite(OpKind k) {
  return k == OpKind::kInsert || k == OpKind::kDelete || k == OpKind::kUpdate;
}

std::shared_ptr<const casper::Distribution> RecentSkew() {
  return std::make_shared<casper::HotspotDistribution>(0.8, 0.2, 0.9);
}

/// Draws each workload's operations from the seed and keeps the reference
/// in step: every write is made to have one outcome (inserts take an absent
/// key, deletes and updates a present one) and every read's answer is
/// computed before the engine sees the step.
class Generator {
 public:
  Generator(const Config& cfg, const Dataset& d, uint64_t seed, Reference* ref)
      : cfg_(cfg), rng_(seed), ref_(ref), lo_(d.domain_lo), hi_(d.domain_hi) {
    switch (cfg.kind) {
      case Kind::kOltpSkewed:
        training_spec_ = casper::hap::MakeSpec(casper::hap::Workload::kHybridSkewed,
                                               lo_, hi_);
        phases_ = {training_spec_};
        break;
      case Kind::kHtapScan: {
        WorkloadSpec s;
        s.domain_lo = lo_;
        s.domain_hi = hi_;
        s.mix = {.point_query = 0.05,
                 .range_count = 0.16,
                 .range_sum = 0.16,
                 .insert = 0.075,
                 .del = 0.045,
                 .update = 0.03,
                 .range_min = 0.16,
                 .range_max = 0.16,
                 .range_avg = 0.16};
        s.read_target = RecentSkew();
        s.write_target = RecentSkew();
        s.update_target = RecentSkew();
        training_spec_ = s;
        phases_ = {s};
        break;
      }
      case Kind::kDurableDrift: {
        const casper::DriftScenario sc = casper::DiurnalBurst(lo_, hi_, 2);
        training_spec_ = sc.training;
        phase_batches_.clear();
        for (const casper::DriftPhase& p : sc.phases) {
          phases_.push_back(p.spec);
          const bool ingest = p.spec.mix.insert > 0;
          phase_batches_.push_back(ingest ? kPhaseBatches / 3 : kPhaseBatches);
          if (ingest) ingest_ = p.spec;
        }
        break;
      }
    }
  }

  std::vector<Operation> Training() {
    Rng rng(rng_.Next());
    return casper::GenerateWorkload(training_spec_, kTrainingOps, rng);
  }

  /// One round of the workload's main-phase traffic.
  void MainRound(Segment* seg) {
    if (cfg_.kind == Kind::kDurableDrift) {
      // A batch of the current day/night phase, scans that land anywhere
      // (so they reach cold chunks), single calls of the phase's mix, and
      // one single insert where night ingest lands: ingest never stops.
      AddBatch(seg);
      for (size_t i = 0; i < kScansPerRound; ++i) AddScan(seg);
      for (size_t i = 0; i < kSinglesPerRound; ++i) AddSingle(seg, Draw());
      AddWrite(seg, {OpKind::kInsert, ingest_.MapToDomain(ingest_.write_target->Sample(rng_)), 0});
      return;
    }
    AddSingle(seg, Draw());
  }

  /// A range aggregate of any shape: count, sum, Q6 with payload
  /// predicates, min, max or avg, over 0.1%-10% of the domain — placed on
  /// the recent region, or anywhere for durable_drift.
  void AddScan(Segment* seg) {
    const double width = static_cast<double>(hi_ - lo_);
    const double sel = std::pow(10.0, -3.0 + 2.0 * rng_.NextDouble());
    const Value span = std::max<Value>(1, static_cast<Value>(sel * width));
    Value a = cfg_.kind == Kind::kDurableDrift ? Uniform()
                                               : lo_ + static_cast<Value>(
                                                           recent_->Sample(rng_) * width);
    a = std::min(a, hi_ - span);
    const Value b = a + span;
    ScanSpec spec;
    switch (rng_.Below(6)) {
      case 0:
        spec = ScanSpec::Count(a, b);
        break;
      case 1:
        spec = rng_.Below(2) == 0 ? ScanSpec::Sum(a, b, {0, 1})
                                  : ScanSpec::Sum(a, b, {0, 1, 2});
        break;
      case 2: {
        const Payload d = static_cast<Payload>(rng_.Below(9000));
        spec = ScanSpec::Q6(a, b, d, d + 999, static_cast<Payload>(2000 + rng_.Below(8000)));
        break;
      }
      case 3:
        spec = ScanSpec::Min(a, b, rng_.Below(kPayloadCols));
        break;
      case 4:
        spec = ScanSpec::Max(a, b, rng_.Below(kPayloadCols));
        break;
      default:
        spec = ScanSpec::Avg(a, b, rng_.Below(kPayloadCols));
        break;
    }
    Step s;
    s.kind = StepKind::kScan;
    s.index = static_cast<uint32_t>(seg->scans.size());
    const RefAnswer ans = ref_->Scan(spec);
    s.expect = ans.result;
    s.expect_count = CountsRows(spec.agg.kind) ? ans.count : 0;
    seg->scans.push_back(std::move(spec));
    seg->steps.push_back(s);
    ++seg->ops;
  }

  /// `n` operations of the workload's (current phase's) mix.
  void AddBatch(Segment* seg, size_t n = kBatchOps) {
    std::vector<Operation> ops(n);
    BatchExpect ex;
    ex.results.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      Operation op = Draw();
      if (IsWrite(op.kind)) {
        op = ApplyWrite(op, /*key_derived=*/true, nullptr);
        ex.inserts += op.kind == OpKind::kInsert;
        ex.deletes += op.kind == OpKind::kDelete;
        ex.updates += op.kind == OpKind::kUpdate;
        ++seg->writes;
      } else if (op.kind == OpKind::kPointQuery) {
        ex.results[i] = ref_->Find(op.a) != nullptr ? 1 : 0;
      } else {
        ex.results[i] = ref_->Scan(OpSpec(op)).result;
      }
      ex.checksum += ex.results[i];
      ops[i] = op;
    }
    ex.checksum += ex.deletes + ex.updates;
    Step s;
    s.kind = StepKind::kBatch;
    s.index = static_cast<uint32_t>(seg->batches.size());
    seg->batches.push_back(std::move(ops));
    seg->batch_expect.push_back(std::move(ex));
    seg->steps.push_back(s);
    seg->ops += n;
    ++batches_;
    if (++phase_batch_ == phase_batches_[phase_ % phase_batches_.size()]) {
      ++phase_;
      phase_batch_ = 0;
    }
    if (cycle_every_ != 0 && batches_ % cycle_every_ == 0) AddCycle(seg);
  }

  void AddFind(Segment* seg, Value key) {
    Step s;
    s.kind = StepKind::kFind;
    s.op = {OpKind::kPointQuery, key, 0};
    const RefRow* r = ref_->Find(key);
    s.expect = r == nullptr ? 0 : EncodeFind(1, r->p.data());
    seg->steps.push_back(s);
    ++seg->ops;
  }

  /// Foreground maintenance cycles: one per `batches` batches (0 = none).
  void set_cycle_every(size_t batches) { cycle_every_ = batches; }

  void AddCycle(Segment* seg) {
    Step c;
    c.kind = StepKind::kCycle;
    seg->steps.push_back(c);
  }

  /// A fixed probe set (reads and scans, no writes) for checking an engine
  /// against the reference without changing either.
  Segment ProbeSet() {
    Segment seg;
    for (size_t i = 0; i < kProbeSetFinds; ++i) AddFind(&seg, Uniform());
    for (size_t i = 0; i < kProbeSetScans; ++i) AddScan(&seg);
    return seg;
  }

 private:
  Value Uniform() { return rng_.Range(lo_, hi_ - 1); }

  /// One facade call for a drawn operation: Find, a single write, or the
  /// scan step (htap_scan's range reads take any ScanSpec shape).
  void AddSingle(Segment* seg, const Operation& op) {
    if (op.kind == OpKind::kPointQuery) {
      AddFind(seg, op.a);
    } else if (IsWrite(op.kind)) {
      AddWrite(seg, op);
    } else {
      AddScan(seg);
    }
  }

  /// One operation of the workload's mix; durable_drift walks its phases,
  /// kPhaseBatches batches each.
  Operation Draw() {
    const size_t phase = phase_ % phases_.size();
    drawn_.resize(phases_.size());
    std::vector<Operation>& buf = drawn_[phase];
    if (buf.empty()) {
      buf = casper::GenerateWorkload(phases_[phase], 4096, rng_);
      std::reverse(buf.begin(), buf.end());
    }
    const Operation op = buf.back();
    buf.pop_back();
    return op;
  }

  void AddWrite(Segment* seg, const Operation& drawn) {
    Step s;
    s.kind = StepKind::kWrite;
    s.op = ApplyWrite(drawn, /*key_derived=*/false, &s.row);
    s.expect = s.op.kind == OpKind::kInsert ? 0 : 1;
    seg->steps.push_back(s);
    ++seg->ops;
    ++seg->writes;
  }

  /// Gives the write one outcome and applies it to the reference. Single
  /// inserts carry a hashed payload (filled into *row); batch inserts the
  /// key-derived one.
  Operation ApplyWrite(Operation op, bool key_derived,
                       std::array<Payload, kPayloadCols>* row) {
    switch (op.kind) {
      case OpKind::kInsert: {
        op.a = ref_->NextFree(op.a);
        RefRow r = KeyDerivedRow(op.a);
        if (!key_derived) r.p = InsertPayload(op.a);
        if (row != nullptr) *row = r.p;
        ref_->Insert(r);
        break;
      }
      case OpKind::kDelete: {
        op.a = ref_->NextPresent(op.a);
        RefRow gone;
        ref_->Erase(op.a, &gone);
        break;
      }
      default:
        op.kind = OpKind::kUpdate;
        op.a = ref_->NextPresent(op.a);
        op.b = ref_->NextFree(op.b);
        ref_->Update(op.a, op.b);
        break;
    }
    return op;
  }

  const Config& cfg_;
  Rng rng_;
  Reference* ref_;
  Value lo_;
  Value hi_;
  WorkloadSpec training_spec_;
  std::vector<WorkloadSpec> phases_;
  std::vector<std::vector<Operation>> drawn_;  ///< pre-drawn ops per phase
  std::shared_ptr<const casper::Distribution> recent_ = RecentSkew();
  std::vector<size_t> phase_batches_{kPhaseBatches};  ///< length of each phase
  WorkloadSpec ingest_;  ///< durable_drift's night phase
  size_t batches_ = 0;
  size_t phase_ = 0;
  size_t phase_batch_ = 0;
  size_t cycle_every_ = kCycleEveryBatches;
};

// --- Execution ----------------------------------------------------------------

/// Latency samples (µs) per operation class.
struct Samples {
  std::vector<double> read, write, scan, batch;
};

/// What the traced run measures around single calls, across every engine
/// of the run.
struct TraceStats {
  uint64_t scans = 0;
  casper::ChunkStatsSnapshot scan_delta;  ///< storage counters over scan steps
  std::vector<double> cycle_s;            ///< RunCycle durations
};

/// Adds the scan counters' movement from `before` to `after` into *acc.
void AddScanDelta(const casper::ChunkStatsSnapshot& before,
                  const casper::ChunkStatsSnapshot& after, casper::ChunkStatsSnapshot* acc) {
  acc->partitions_scanned += after.partitions_scanned - before.partitions_scanned;
  acc->partitions_pruned += after.partitions_pruned - before.partitions_pruned;
  acc->compressed_scans += after.compressed_scans - before.compressed_scans;
  acc->compressed_payload_scans +=
      after.compressed_payload_scans - before.compressed_payload_scans;
}

/// Runs segments against one engine: through the facade, or (traced) through
/// the public layer calls each facade method makes, with a span around each.
class Runner {
 public:
  Runner(CasperEngine* engine, Tracer* tracer, TraceStats* stats)
      : engine_(engine), tracer_(tracer), stats_(stats) {
    if (tracer_->enabled() && engine_->maintenance() != nullptr &&
        engine_->tier() != nullptr) {
      // The hook the engine installed calls tier()->RunCycle(); the traced
      // run makes the same call inside a span.
      casper::persist::TierManager* tier = engine_->tier();
      engine_->maintenance()->SetCycleHook([this, tier] {
        SpanScope span(tracer_, "persist.tier_cycle", cycle_span_);
        tier->RunCycle();
      });
    }
  }

  /// Executes the steps in order; returns the wall time in ns and the number
  /// of answers that disagree with the reference. Latencies go to `samples`
  /// when it is non-null.
  int64_t Run(const Segment& seg, Samples* samples, uint64_t* mismatches) {
    got_.assign(seg.steps.size(), 0);
    got_count_.assign(seg.steps.size(), 0);
    mixed_.resize(seg.batches.size());
    const int64_t t_begin = NowNs();
    for (size_t i = 0; i < seg.steps.size(); ++i) {
      const Step& s = seg.steps[i];
      const int64_t t0 = NowNs();
      std::vector<double>* sink = nullptr;
      switch (s.kind) {
        case StepKind::kFind: {
          const size_t n = engine_->Find(s.op.a, &payload_);
          got_[i] = EncodeFind(n, payload_.data());
          sink = samples != nullptr ? &samples->read : nullptr;
          break;
        }
        case StepKind::kWrite:
          got_[i] = Write(s);
          sink = samples != nullptr ? &samples->write : nullptr;
          break;
        case StepKind::kScan: {
          const ScanSpec& spec = seg.scans[s.index];
          const casper::ScanPartial p = Scan(spec, i);
          got_[i] = p.Result(spec.agg);
          got_count_[i] = CountsRows(spec.agg.kind) ? p.count : 0;
          sink = samples != nullptr ? &samples->scan : nullptr;
          break;
        }
        case StepKind::kBatch:
          mixed_[s.index] = Batch(seg.batches[s.index], i);
          sink = samples != nullptr ? &samples->batch : nullptr;
          break;
        case StepKind::kCycle:
          Cycle(i);
          break;
      }
      if (sink != nullptr) sink->push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    const int64_t wall = NowNs() - t_begin;
    *mismatches += Check(seg);
    return wall;
  }

 private:
  uint64_t Write(const Step& s) {
    switch (s.op.kind) {
      case OpKind::kInsert:
        row_.assign(s.row.begin(), s.row.end());
        engine_->Insert(s.op.a, row_);
        return 0;
      case OpKind::kDelete:
        return engine_->Delete(s.op.a);
      default:
        return engine_->Update(s.op.a, s.op.b) ? 1 : 0;
    }
  }

  casper::ScanPartial Scan(const ScanSpec& spec, uint64_t step) {
    if (!tracer_->enabled()) return engine_->ExecuteScan(spec);
    // CasperEngine::ExecuteScan: observe, then fan the spec out over the
    // shards on the engine's pool (or one whole-engine scan when serial).
    const casper::ChunkStatsSnapshot before = engine_->layout().StatsSnapshots().Totals();
    if (engine_->maintenance() != nullptr) engine_->maintenance()->ObserveSpec(spec);
    casper::ScanPartial total;
    {
      SpanScope scan(tracer_, "exec.scan", Tracer::kNone, step);
      const casper::LayoutEngine& layout = engine_->layout();
      casper::ThreadPool* pool = engine_->pool();
      if (pool == nullptr || pool->num_threads() <= 1) {
        SpanScope shard(tracer_, "layouts.shard_scan", scan.id(), step);
        total = layout.ExecuteScan(spec);
      } else {
        const int parent = scan.id();
        const auto partials = casper::exec::MorselMap<casper::ScanPartial>(
            pool, layout.NumShards(), [&](size_t s) {
              SpanScope shard(tracer_, "layouts.shard_scan", parent, step);
              return layout.ScanSpecShard(s, spec);
            });
        for (const casper::ScanPartial& p : partials) total.Merge(p);
      }
    }
    AddScanDelta(before, engine_->layout().StatsSnapshots().Totals(), &stats_->scan_delta);
    ++stats_->scans;
    return total;
  }

  MixedResult Batch(const std::vector<Operation>& ops, uint64_t step) {
    if (!tracer_->enabled()) return engine_->RunMixed(ops);
    // CasperEngine::RunMixed: observe, journal the run, then admit it.
    SpanScope batch(tracer_, "exec.batch", Tracer::kNone, step);
    if (engine_->maintenance() != nullptr) engine_->maintenance()->ObserveAll(ops);
    if (engine_->durable() != nullptr) {
      SpanScope journal(tracer_, "persist.journal_append", batch.id(), step);
      engine_->durable()->LogOps(ops.data(), ops.size());
    }
    SpanScope run(tracer_, "exec.mixed_run", batch.id(), step);
    return casper::MixedWorkloadRunner(engine_->pool(), &engine_->oracle())
        .Run(engine_->layout(), ops);
  }

  void Cycle(uint64_t step) {
    const int64_t t0 = NowNs();
    {
      SpanScope cycle(tracer_, "maintenance.cycle", Tracer::kNone, step);
      cycle_span_ = cycle.id();
      engine_->maintenance()->RunCycle();
    }
    stats_->cycle_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  uint64_t Check(const Segment& seg) {
    uint64_t bad = 0;
    for (size_t i = 0; i < seg.steps.size(); ++i) {
      const Step& s = seg.steps[i];
      switch (s.kind) {
        case StepKind::kFind:
        case StepKind::kWrite:
          if (got_[i] != s.expect) {
            ++bad;
            DescribeMismatch(s, got_[i], 0);
          }
          break;
        case StepKind::kScan:
          if (got_[i] != s.expect || got_count_[i] != s.expect_count) {
            ++bad;
            DescribeMismatch(s, got_[i], got_count_[i]);
          }
          break;
        case StepKind::kBatch: {
          const MixedResult& m = mixed_[s.index];
          const BatchExpect& e = seg.batch_expect[s.index];
          if (m.results.size() != e.results.size()) {
            bad += e.results.size();
            break;
          }
          for (size_t j = 0; j < e.results.size(); ++j) bad += m.results[j] != e.results[j];
          bad += m.checksum != e.checksum || m.inserts != e.inserts ||
                 m.deletes != e.deletes || m.updates != e.updates;
          if (m.checksum != e.checksum) DescribeMismatch(s, m.checksum, e.checksum);
          break;
        }
        case StepKind::kCycle:
          break;
      }
    }
    return bad;
  }

  /// Describes the first few wrong answers on stderr.
  void DescribeMismatch(const Step& s, uint64_t got, uint64_t got_count) {
    if (++reported_ > 5) return;
    std::fprintf(stderr,
                 "wrong answer: step kind %d op %d [%" PRId64 ", %" PRId64
                 ") expected %" PRIu64 "/%" PRIu64 ", got %" PRIu64 "/%" PRIu64 "\n",
                 static_cast<int>(s.kind), static_cast<int>(s.op.kind), s.op.a, s.op.b,
                 s.expect, s.expect_count, got, got_count);
  }

  CasperEngine* engine_;
  Tracer* tracer_;
  TraceStats* stats_;
  int reported_ = 0;
  int cycle_span_ = Tracer::kNone;
  std::vector<uint64_t> got_;
  std::vector<uint64_t> got_count_;
  std::vector<MixedResult> mixed_;
  std::vector<Payload> payload_;
  std::vector<Payload> row_;
};

/// Answers of the probe set from a bare layout (the traced recovery builds
/// one without the facade); 0 mismatches expected.
uint64_t CheckLayout(const casper::LayoutEngine& layout, const Segment& probes) {
  uint64_t bad = 0;
  std::vector<Payload> payload;
  for (const Step& s : probes.steps) {
    if (s.kind == StepKind::kFind) {
      const size_t n = layout.PointLookup(s.op.a, &payload);
      bad += EncodeFind(n, payload.data()) != s.expect;
    } else {
      const ScanSpec& spec = probes.scans[s.index];
      const casper::ScanPartial p = layout.ExecuteScan(spec);
      bad += p.Result(spec.agg) != s.expect ||
             (CountsRows(spec.agg.kind) ? p.count : 0) != s.expect_count;
    }
  }
  return bad;
}

// --- Metrics --------------------------------------------------------------------

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::max<size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool higher_is_better = false;
};

// --- One run --------------------------------------------------------------------

struct Args {
  const Config* cfg = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  /// Give the last set-up Open other planner costs, as a build that is not
  /// repeatable would: its layout differs, and the run must report that as a
  /// failure (perfbench/selftest.py checks that it does).
  bool vary_last_open = false;
};

EngineOptions BaseOptions(const Config& cfg, const std::string& store, bool durable) {
  EngineOptions o;
  o.layout.mode = casper::LayoutMode::kCasper;
  o.layout.chunk_values = ChunkValues(cfg);
  o.layout.block_values = kBlockValues;
  o.layout.calibrate_costs = false;
  o.layout.planner.costs = PinnedCosts();
  o.exec_threads = cfg.exec_threads;
  if (durable) {
    o.persist.storage_dir = store;
    o.persist.journal_fsync_every = kJournalFsyncEvery;
    o.maintenance.enabled = true;
    o.maintenance.background = false;
  }
  return o;
}

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        cfg_(*args.cfg),
        tracer_(args.trace),
        data_(MakeData(cfg_, args.seed)),
        gen_(cfg_, data_, args.seed * 0x9E3779B97F4A7C15ull + 1, &ref_) {
    ref_.Load(data_.sorted_rows);
    data_.sorted_rows = {};
    training_ = gen_.Training();
  }

  int Main() {
    Log("inputs");
    Setup();
    Log("setup");
    const size_t main_ops = static_cast<size_t>(cfg_.ops_per_second * args_.seconds);
    // Warm-up: the same traffic, untimed, until encodings are built and
    // tiering and maintenance have run several cycles.
    RunTraffic(main_ops / 5, nullptr);
    Log("warm-up");
    const casper::ChunkStatsSnapshot before = engine_->layout().StatsSnapshots().Totals();
    const int64_t main_ns = RunTraffic(main_ops, &samples_);
    throughput_ = static_cast<double>(main_ops_done_) / (static_cast<double>(main_ns) / 1e9);
    std::fprintf(stderr, "timed %zu operations in %.3f s\n", main_ops_done_,
                 static_cast<double>(main_ns) / 1e9);
    const casper::ChunkStatsSnapshot after = engine_->layout().StatsSnapshots().Totals();
    main_delta_.element_reads = after.element_reads - before.element_reads;
    main_delta_.ripple_steps = after.ripple_steps - before.ripple_steps;
    main_delta_.grows = after.grows - before.grows;
    Log("main phase");

    // Probes of the classes the main phase lacks, on the same engine state.
    // Their warm-ups are long: with short ones about 1% of the timed calls
    // took ~17 ms (a chunk builds its compressed encodings after 8 scans at
    // one epoch, and cold chunks see few of the recent-skewed scans), so p99
    // jumped between two modes.
    if (samples_.scan.size() < kProbeSamples) {
      Segment seg;
      for (size_t i = 0; i < 2 * kProbeSamples; ++i) gen_.AddScan(&seg);
      Execute(seg, nullptr);
      while (samples_.scan.size() < kProbeSamples) {
        seg.Clear();
        for (size_t i = 0; i < 256; ++i) gen_.AddScan(&seg);
        Execute(seg, &samples_);
      }
    }
    Log("scan probe");
    space_amp_ = engine_->MemoryStats().Amplification();
    if (samples_.batch.empty()) {
      Checkpoint();
      gen_.set_cycle_every(0);
      Segment seg;
      // The re-opened engine starts with no encodings, and write-hot chunks
      // rebuild theirs until the cache's churn backoff saturates.
      for (size_t i = 0; i < kProbeSamples; ++i) gen_.AddBatch(&seg, kProbeBatchOps);
      Execute(seg, nullptr);
      while (samples_.batch.size() < kProbeSamples) {
        seg.Clear();
        for (size_t i = 0; i < 256; ++i) gen_.AddBatch(&seg, kProbeBatchOps);
        Execute(seg, &samples_);
      }
      seg.Clear();
      for (size_t c = 0; c < kProbeCycles; ++c) {
        for (size_t i = 0; i < kCycleEveryBatches; ++i) gen_.AddBatch(&seg, kProbeBatchOps);
        gen_.AddCycle(&seg);
      }
      Execute(seg, nullptr);
    }
    Log("batch probe");
    Recover();
    Log("recovery");
    Report();
    fs::remove_all(args_.work_dir);
    return 0;
  }

 private:
  /// Progress on stderr: how long the phase that just ended took.
  void Log(const char* phase) {
    const int64_t now = NowNs();
    std::fprintf(stderr, "%-12s %8.3f s\n", phase, static_cast<double>(now - log_ns_) / 1e9);
    log_ns_ = now;
  }

  std::string Dir(const std::string& name) const { return args_.work_dir + "/" + name; }

  void Setup() {
    for (int r = 0; r < kOpens; ++r) {
      engine_.reset();
      const std::string store = Dir("store" + std::to_string(r));
      EngineOptions o = BaseOptions(cfg_, store, cfg_.durable);
      if (args_.vary_last_open && r == kOpens - 1) {
        o.layout.planner.costs.sr *= 8;
        o.layout.planner.costs.sw *= 8;
      }
      o.keys = data_.keys;
      o.payload = data_.payload;
      o.training = &training_;
      const int64_t t0 = NowNs();
      engine_ = std::make_unique<CasperEngine>(CasperEngine::Open(std::move(o)));
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (r > 0) fs::remove_all(Dir("store" + std::to_string(r - 1)));
      store_ = store;
      // Every Open of the same data must build the same layout.
      const uint64_t fp = engine_->layout().LayoutFingerprint();
      if (r == 0) {
        fingerprint_ = fp;
      } else if (fp != fingerprint_) {
        std::fprintf(stderr, "open %d built layout %016" PRIx64 ", open 0 built %016" PRIx64 "\n",
                     r, fp, fingerprint_);
        ++failed_;
      }
    }
    attempted_ += kOpens;
    if (tracer_.enabled()) TraceSetup();
    runner_ = std::make_unique<Runner>(engine_.get(), &tracer_, &trace_stats_);
  }

  /// The build Open performs, as its public layer calls.
  void TraceSetup() {
    EngineOptions o = BaseOptions(cfg_, "", false);
    casper::LayoutBuildOptions build = o.layout;
    build.training = &training_;
    build.pool = engine_->pool();
    std::vector<Value> keys = data_.keys;
    std::vector<std::vector<Payload>> payload = data_.payload;
    std::vector<size_t> counts;
    {
      SpanScope s(&tracer_, "setup.sort");
      casper::SortRowsByKey(&keys, &payload);
      counts = casper::DuplicateSafeChunkCounts(keys, ChunkValues(cfg_));
    }
    casper::WorkloadCapture capture(keys, counts, kBlockValues);
    {
      SpanScope s(&tracer_, "workload.capture");
      capture.CaptureAll(training_, build.pool);
    }
    const casper::PlannerOptions planner = casper::ResolvePlannerOptions(build);
    std::vector<casper::ChunkPlan> plans;
    {
      SpanScope s(&tracer_, "optimizer.plan");
      plans = casper::LayoutPlanner::PlanChunks(capture.models(), ChunkValues(cfg_), planner,
                                                build.pool);
    }
    std::vector<casper::PartitionedTable::ChunkLayoutSpec> specs(counts.size());
    for (size_t c = 0; c < counts.size(); ++c) {
      specs[c].partition_sizes = plans[c].PartitionValueSizes(kBlockValues, counts[c]);
      specs[c].ghosts = plans[c].ghosts.per_partition;
    }
    std::unique_ptr<casper::PartitionedTable> table;
    {
      SpanScope s(&tracer_, "storage.build");
      table = std::make_unique<casper::PartitionedTable>(casper::PartitionedTable::Build(
          std::move(keys), std::move(payload), std::move(specs),
          casper::PartitionedTableOptionsFor(build)));
    }
    if (table->LayoutFingerprint() != fingerprint_) {
      std::fprintf(stderr, "traced build made a different layout than Open\n");
      ++failed_;
    }
    const casper::persist::StoreLayout store(Dir("trace_store"));
    Require(store.EnsureLayout());
    SpanScope s(&tracer_, "persist.create_store");
    Require(casper::persist::CreateStore(store, *table,
                                         static_cast<uint32_t>(casper::LayoutMode::kCasper),
                                         ChunkValues(cfg_)));
  }

  /// Options that re-open the run's store. A checkpointed in-memory workload
  /// continues serially: its main phase already drives the pool, and with a
  /// pool of 2 the batch probe's median moved by up to 30% between runs of
  /// the same seed.
  EngineOptions StoreOptions() const {
    EngineOptions o = BaseOptions(cfg_, store_, true);
    if (!cfg_.durable) o.exec_threads = 0;
    return o;
  }

  void Require(const casper::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "store operation failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  /// Main-phase traffic until `ops` operations; returns the summed wall time
  /// of the executed segments. Timed traffic (`samples` non-null) stops
  /// early when a run is so much slower than the reference machine that it
  /// would overrun its time limit; the metrics then cover the operations run.
  int64_t RunTraffic(size_t ops, Samples* samples) {
    int64_t ns = 0;
    size_t done = 0;
    Segment seg;
    while (done < ops) {
      seg.Clear();
      while (seg.ops < kSegmentOps && done + seg.ops < ops) gen_.MainRound(&seg);
      ns += Execute(seg, samples);
      done += seg.ops;
      if (samples != nullptr) {
        main_ops_done_ += seg.ops;
        main_writes_ += seg.writes;
        if (static_cast<double>(ns) / 1e9 > 4 * args_.seconds) break;
      }
    }
    return ns;
  }

  int64_t Execute(const Segment& seg, Samples* samples) {
    attempted_ += seg.ops;
    if (engine_->durable() != nullptr) journaled_writes_ += seg.writes;
    return runner_->Run(seg, samples, &failed_);
  }

  /// In-memory workloads: write the live table as a store, close, and
  /// continue on the re-opened, journaled engine with foreground
  /// maintenance — the configuration the batch probe and recovery need.
  void Checkpoint() {
    store_ = Dir("checkpoint");
    const casper::persist::StoreLayout store(store_);
    Require(store.EnsureLayout());
    const auto& partitioned = dynamic_cast<const casper::PartitionedLayout&>(engine_->layout());
    Require(casper::persist::CreateStore(store, partitioned.table(),
                                         static_cast<uint32_t>(casper::LayoutMode::kCasper),
                                         ChunkValues(cfg_)));
    runner_.reset();
    engine_.reset();
    engine_ = std::make_unique<CasperEngine>(CasperEngine::Open(StoreOptions()));
    runner_ = std::make_unique<Runner>(engine_.get(), &tracer_, &trace_stats_);
  }

  /// Close the store and re-open it kReopens times; the re-opened engine
  /// must answer the probe set as the live one did and hold as many rows.
  void Recover() {
    const Segment probes = gen_.ProbeSet();
    uint64_t live_bad = 0;
    runner_->Run(probes, nullptr, &live_bad);
    attempted_ += probes.ops;
    failed_ += live_bad;
    if (engine_->num_rows() != ref_.size()) ++failed_;
    if (engine_->maintenance() != nullptr) maint_ = engine_->maintenance()->stats();
    if (engine_->durable() != nullptr) {
      journal_bytes_ = fs::file_size(engine_->durable()->layout().JournalPath());
    }
    Require(engine_->FlushWal());
    disk_amp_ = static_cast<double>(DirBytes(store_)) /
                static_cast<double>(ref_.size() * kRowBytes);
    runner_.reset();
    engine_.reset();

    const EngineOptions o = StoreOptions();
    for (int r = 0; r < kReopens; ++r) {
      engine_.reset();
      const int64_t t0 = NowNs();
      engine_ = std::make_unique<CasperEngine>(CasperEngine::Open(o));
      recovery_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    std::fprintf(stderr, "re-opens (s):");
    for (const double s : recovery_s_) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\nopens (s):");
    for (const double s : setup_s_) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
    Runner check(engine_.get(), &tracer_, &trace_stats_);
    uint64_t bad = 0;
    check.Run(probes, nullptr, &bad);
    attempted_ += probes.ops;
    failed_ += bad;
    if (engine_->num_rows() != ref_.size()) {
      std::fprintf(stderr, "recovered %zu rows, expected %zu\n", engine_->num_rows(),
                   ref_.size());
      ++failed_;
    }
    const uint64_t recovered_fp = engine_->layout().LayoutFingerprint();
    engine_.reset();
    if (tracer_.enabled()) TraceRecovery(o, probes, recovered_fp);
  }

  /// The recovery Open performs, as its public layer calls.
  void TraceRecovery(const EngineOptions& o, const Segment& probes, uint64_t recovered_fp) {
    const casper::persist::StoreLayout store(store_);
    std::unique_ptr<casper::ThreadPool> pool;
    if (cfg_.exec_threads > 1) pool = std::make_unique<casper::ThreadPool>(cfg_.exec_threads);
    const casper::PartitionedTable::Options topts =
        casper::PartitionedTableOptionsFor(o.layout);
    casper::persist::Manifest manifest;
    casper::persist::RecoveredTableData data;
    {
      SpanScope s(&tracer_, "persist.load_store");
      Require(casper::persist::LoadStore(store, &manifest, &data, topts.chunk.spare_tail));
    }
    std::unique_ptr<casper::PartitionedLayout> layout;
    {
      SpanScope s(&tracer_, "storage.rebuild");
      layout = std::make_unique<casper::PartitionedLayout>(
          casper::LayoutMode::kCasper,
          casper::PartitionedTable::Build(std::move(data.keys), std::move(data.payload),
                                          std::move(data.specs), topts));
    }
    {
      SpanScope replay(&tracer_, "persist.journal_replay");
      std::vector<casper::persist::JournalRecord> records;
      uint64_t valid = 0;
      Require(casper::persist::ReadJournal(store.JournalPath(), &records, &valid));
      for (const casper::persist::JournalRecord& rec : records) {
        SpanScope apply(&tracer_, "persist.apply", replay.id());
        if (rec.type == casper::persist::JournalRecordType::kRowsRun) {
          layout->InsertRows(rec.rows.data(), rec.rows.size(), pool.get());
        } else {
          layout->ApplyBatch(rec.ops.data(), rec.ops.size(), pool.get());
        }
      }
    }
    attempted_ += probes.ops;
    failed_ += CheckLayout(*layout, probes);
    if (layout->LayoutFingerprint() != recovered_fp || layout->num_rows() != ref_.size()) {
      std::fprintf(stderr, "traced recovery differs from the facade's\n");
      ++failed_;
    }
  }

  void Report() {
    std::printf("workload %s seed %" PRIu64 ": %zu rows in %zu chunks, %zu payload columns\n",
                cfg_.name, args_.seed, cfg_.rows, kChunks, kPayloadCols);
    std::printf("layout fingerprint %016" PRIx64 "\n", fingerprint_);
    std::printf("samples: read %zu, write %zu, scan %zu, batch %zu; main ops %zu\n",
                samples_.read.size(), samples_.write.size(), samples_.scan.size(),
                samples_.batch.size(), main_ops_done_);
    std::printf("attempted %" PRIu64 ", failed %" PRIu64 ", error_rate %.3g\n", attempted_,
                failed_, static_cast<double>(failed_) / static_cast<double>(attempted_));
    // Printed for reading only: their run-to-run spread exceeded the
    // regression bound, so they are not among the metrics (README.md).
    std::printf("read_p50_us %.3f, scan_p99_us %.1f, batch_p99_us %.1f\n",
                Percentile(samples_.read, 0.50), Percentile(samples_.scan, 0.99),
                Percentile(samples_.batch, 0.99));
    std::vector<Metric> metrics = args_.trace ? LayerMetrics() : EndToEndMetrics();
    for (const Metric& m : metrics) {
      std::printf("  %-40s %16.6f %-16s %s is better\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.higher_is_better ? "higher" : "lower");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    if (tracer_.enabled() && !args_.trace_out.empty() && !tracer_.WriteCsv(args_.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args_.trace_out.c_str());
    }
  }

  std::vector<Metric> EndToEndMetrics() const {
    return {
        {"throughput_ops", throughput_, "ops/s", true},
        {"read_p99_us", Percentile(samples_.read, 0.99), "us"},
        {"write_p50_us", Percentile(samples_.write, 0.50), "us"},
        {"write_p99_us", Percentile(samples_.write, 0.99), "us"},
        {"scan_p50_us", Percentile(samples_.scan, 0.50), "us"},
        {"batch_p50_us", Percentile(samples_.batch, 0.50), "us"},
        {"setup_s", Median(setup_s_), "s"},
        {"recovery_s", Median(recovery_s_), "s"},
        {"space_amp", space_amp_, "ratio"},
        {"disk_amp", disk_amp_, "ratio"},
    };
  }

  std::vector<Metric> LayerMetrics() const {
    const std::map<std::string, Tracer::Totals> t = tracer_.Fold();
    auto total_s = [&](const char* name) {
      const auto it = t.find(name);
      return it == t.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
    };
    auto mean_us = [&](const char* name) {
      const auto it = t.find(name);
      return it == t.end() || it->second.count == 0
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) / 1e3 /
                       static_cast<double>(it->second.count);
    };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const casper::ChunkStatsSnapshot& m = main_delta_;
    const casper::ChunkStatsSnapshot& s = trace_stats_.scan_delta;
    const double scans = static_cast<double>(trace_stats_.scans);
    const double writes = static_cast<double>(main_writes_);
    // Self time of a scan: while no shard scan runs (dispatch, wake-up, merge).
    const auto fanout = t.find("exec.scan");
    const double fanout_us =
        fanout == t.end() ? 0.0
                          : static_cast<double>(fanout->second.self_ns) / 1e3 /
                                static_cast<double>(fanout->second.count);
    return {
        {"workload.capture_s", total_s("workload.capture"), "s"},
        {"optimizer.plan_s", total_s("optimizer.plan"), "s"},
        {"storage.build_s", total_s("storage.build"), "s"},
        {"storage.element_reads_per_op",
         per(static_cast<double>(m.element_reads), static_cast<double>(main_ops_done_)),
         "elements/op"},
        {"storage.ripple_steps_per_write", per(static_cast<double>(m.ripple_steps), writes),
         "steps/write"},
        {"storage.grows", static_cast<double>(m.grows), "count"},
        {"storage.partitions_scanned_per_scan",
         per(static_cast<double>(s.partitions_scanned), scans), "partitions/scan"},
        {"storage.partitions_pruned_ratio",
         per(static_cast<double>(s.partitions_pruned),
             static_cast<double>(s.partitions_scanned + s.partitions_pruned)),
         "ratio", true},
        {"layouts.shard_scan_us", per(total_s("layouts.shard_scan") * 1e6, scans), "us"},
        {"exec.fanout_overhead_us", fanout_us, "us"},
        {"exec.mixed_batch_us", mean_us("exec.mixed_run"), "us"},
        {"compression.packed_scan_ratio", per(static_cast<double>(s.compressed_scans), scans),
         "chunks/scan", true},
        {"compression.packed_payload_scan_ratio",
         per(static_cast<double>(s.compressed_payload_scans),
             static_cast<double>(s.partitions_scanned)),
         "ratio", true},
        {"maintenance.cycle_p50_s", Percentile(trace_stats_.cycle_s, 0.5), "s"},
        {"maintenance.cycle_max_s", Percentile(trace_stats_.cycle_s, 1.0), "s"},
        {"maintenance.chunks_evaluated", static_cast<double>(maint_.chunks_evaluated), "count"},
        {"maintenance.chunks_repartitioned", static_cast<double>(maint_.chunks_repartitioned),
         "count"},
        {"maintenance.ops_dropped", static_cast<double>(maint_.ops_dropped), "count"},
        {"persist.journal_append_us", mean_us("persist.journal_append"), "us"},
        {"persist.apply_us", mean_us("persist.apply"), "us"},
        {"persist.journal_bytes_per_user_byte",
         per(static_cast<double>(journal_bytes_),
             static_cast<double>(kRowBytes * journaled_writes_)),
         "ratio"},
        {"persist.tier_cycle_s",
         per(total_s("persist.tier_cycle"), static_cast<double>(trace_stats_.cycle_s.size())),
         "s"},
        {"persist.load_store_s", total_s("persist.load_store"), "s"},
        {"persist.journal_replay_s", total_s("persist.journal_replay"), "s"},
        {"persist.create_store_s", total_s("persist.create_store"), "s"},
        {"trace.throughput_ops", throughput_, "ops/s", true},
    };
  }

  const Args& args_;
  const Config& cfg_;
  Tracer tracer_;
  Dataset data_;
  Reference ref_;
  Generator gen_;
  std::vector<Operation> training_;
  std::unique_ptr<CasperEngine> engine_;
  std::unique_ptr<Runner> runner_;
  std::string store_;
  uint64_t fingerprint_ = 0;

  int64_t log_ns_ = NowNs();
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  Samples samples_;
  size_t main_ops_done_ = 0;
  size_t main_writes_ = 0;
  size_t journaled_writes_ = 0;
  double throughput_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> recovery_s_;
  double space_amp_ = 0;
  double disk_amp_ = 0;
  uint64_t journal_bytes_ = 0;
  casper::ChunkStatsSnapshot main_delta_;  ///< reads, ripples, grows over the main phase
  TraceStats trace_stats_;
  casper::MaintenanceStats maint_;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (kv.count(required) == 0) return false;
  }
  for (const Config& c : kConfigs) {
    if (kv["workload"] == c.name) out->cfg = &c;
  }
  if (out->cfg == nullptr) return false;
  out->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  out->seconds = std::atof(kv["seconds"].c_str());
  out->trace = kv["trace"] == "1";
  out->work_dir = kv["work-dir"];
  out->trace_out = kv["trace-out"];
  out->vary_last_open = kv["vary-last-open"] == "1";
  return out->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <oltp_skewed|htap_scan|durable_drift> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--trace-out <spans.csv>] [--vary-last-open 1]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  perfbench::Bench bench(args);
  return bench.Main();
}
