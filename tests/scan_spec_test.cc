// Golden-equivalence suite for the unified ScanSpec query API
// (exec/scan_spec.h): on every one of the six layouts, the legacy per-shape
// wrappers (CountRange / SumPayloadRange / TpchQ6 / ScanAll), the
// whole-engine ExecuteScan, and the shard-by-shard ScanSpecShard merge must
// agree bit for bit — with each other AND with a row-at-a-time brute-force
// reference over the raw dataset — across randomized specs (empty ranges,
// full domain, domain-edge keys, 0-3 payload predicates, all six aggregate
// kinds). The pool fan-out and the mixed runner must produce the same values
// for the new aggregate op kinds as the serial harness. CI runs this binary
// under Release, ASan+UBSan, and TSan.
#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "exec/scan_spec.h"
#include "layouts/layout_factory.h"
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
  f.training = GenerateWorkload(spec, 1200, train_rng);
  return f;
}

LayoutBuildOptions ModeOptions(LayoutMode mode, const Fixture& f) {
  LayoutBuildOptions opts;
  opts.mode = mode;
  opts.chunk_values = 4096;  // many chunks -> many shards at test scale
  opts.block_values = 128;
  opts.calibrate_costs = false;
  opts.training = &f.training;
  return opts;
}

std::unique_ptr<LayoutEngine> BuildMode(LayoutMode mode, const Fixture& f) {
  return BuildLayout(ModeOptions(mode, f), f.data.keys, f.data.payload);
}

/// Row-at-a-time reference with the spec's exact semantics (closed payload
/// predicates, wrapping 64-bit sums, int64 products). Row order does not
/// matter: every ScanPartial component is commutative.
ScanPartial BruteEval(const ScanSpec& spec, const std::vector<Value>& keys,
                      const std::vector<std::vector<Payload>>& payload) {
  ScanPartial out;
  if (!spec.RefsValid(payload.size())) return out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!spec.full_domain &&
        (spec.lo >= spec.hi || keys[i] < spec.lo || keys[i] >= spec.hi)) {
      continue;
    }
    bool ok = true;
    for (const PredicateSpec& p : spec.predicates) {
      ok = ok && payload[p.col][i] >= p.lo && payload[p.col][i] <= p.hi;
    }
    if (!ok) continue;
    switch (spec.agg.kind) {
      case AggKind::kCount:
        ++out.count;
        break;
      case AggKind::kSum:
        for (const size_t c : spec.agg.cols) out.sum += payload[c][i];
        break;
      case AggKind::kSumProduct:
        out.sum += static_cast<uint64_t>(
            static_cast<int64_t>(payload[spec.agg.cols[0]][i]) *
            static_cast<int64_t>(payload[spec.agg.cols[1]][i]));
        break;
      case AggKind::kMin:
        out.min = std::min(out.min, payload[spec.agg.cols[0]][i]);
        ++out.count;
        break;
      case AggKind::kMax:
        out.max = std::max(out.max, payload[spec.agg.cols[0]][i]);
        ++out.count;
        break;
      case AggKind::kAvg:
        out.sum += payload[spec.agg.cols[0]][i];
        ++out.count;
        break;
    }
  }
  return out;
}

/// Shard-by-shard merge in index order — what every runner's fan-out does.
ScanPartial ShardMerge(const LayoutEngine& engine, const ScanSpec& spec) {
  ScanPartial total;
  for (size_t s = 0; s < engine.NumShards(); ++s) {
    total.Merge(engine.ScanSpecShard(s, spec));
  }
  return total;
}

ScanSpec RandomSpec(Rng& rng, Value dlo, Value dhi, size_t pcols) {
  ScanSpec s;
  const uint64_t span = static_cast<uint64_t>(dhi - dlo) + 1;
  const uint64_t shape = rng.Below(10);
  if (shape == 0) {
    s.full_domain = true;
  } else if (shape == 1) {
    // Empty key range (lo >= hi) — must evaluate to the zero partial.
    s.lo = dlo + static_cast<Value>(rng.Below(span));
    s.hi = s.lo - static_cast<Value>(rng.Below(100));
  } else {
    s.lo = dlo + static_cast<Value>(rng.Below(span));
    s.hi = s.lo + static_cast<Value>(rng.Below(span / 4 + 1)) + 1;
  }
  const size_t npred = rng.Below(4);  // 0-3 payload predicates
  for (size_t i = 0; i < npred; ++i) {
    PredicateSpec p;
    p.col = rng.Below(pcols);
    // Payload values live in [0, 10000); bounds straddle that (sometimes
    // empty: lo > hi).
    const Payload a = static_cast<Payload>(rng.Below(12000));
    const Payload b = static_cast<Payload>(rng.Below(12000));
    p.lo = std::min(a, b);
    p.hi = rng.Below(20) == 0 ? std::min(a, b) - 1 : std::max(a, b);
    s.predicates.push_back(p);
  }
  switch (rng.Below(6)) {
    case 0:
      s.agg.kind = AggKind::kCount;
      break;
    case 1:
      s.agg.kind = AggKind::kSum;
      s.agg.cols = {0};
      if (pcols > 1 && rng.Below(2) == 0) s.agg.cols.push_back(1);
      break;
    case 2:
      s.agg.kind = AggKind::kSumProduct;
      s.agg.cols = {rng.Below(pcols), rng.Below(pcols)};
      break;
    case 3:
      s.agg.kind = AggKind::kMin;
      s.agg.cols = {rng.Below(pcols)};
      break;
    case 4:
      s.agg.kind = AggKind::kMax;
      s.agg.cols = {rng.Below(pcols)};
      break;
    default:
      s.agg.kind = AggKind::kAvg;
      s.agg.cols = {rng.Below(pcols)};
      break;
  }
  return s;
}

void ExpectPartialEq(const ScanPartial& got, const ScanPartial& want,
                     const ScanSpec& spec, const char* what) {
  EXPECT_EQ(got.Result(spec.agg), want.Result(spec.agg)) << what;
  EXPECT_EQ(got.count, want.count) << what;
  if (spec.agg.kind == AggKind::kSum || spec.agg.kind == AggKind::kSumProduct ||
      spec.agg.kind == AggKind::kAvg) {
    EXPECT_EQ(got.sum, want.sum) << what;
  }
}

// The acceptance gate: the legacy per-shape surface produces bit-identical
// results through the ScanSpec path on all six layouts — whole-engine,
// sharded merge, and brute force all agree.
TEST(ScanSpecGolden, LegacyWrappersBitIdenticalAcrossLayouts) {
  const Fixture f = MakeFixture(30000, 91);
  const Value dlo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - dlo) + 1;
  const std::vector<size_t> cols = {0, 1};

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);

    // Full scans cover every row.
    EXPECT_EQ(engine->ExecuteScan(ScanSpec::FullScan()).count, 30000u);
    EXPECT_EQ(ShardMerge(*engine, ScanSpec::FullScan()).count, 30000u);

    Rng qrng(17);
    for (int i = 0; i < 150; ++i) {
      const Value a = dlo + static_cast<Value>(qrng.Below(span));
      const Value b = a + static_cast<Value>(qrng.Below(span / 4 + 1)) + 1;

      const uint64_t count_brute =
          BruteEval(ScanSpec::Count(a, b), f.data.keys, f.data.payload).count;
      EXPECT_EQ(engine->CountRange(a, b), count_brute);
      EXPECT_EQ(ShardMerge(*engine, ScanSpec::Count(a, b)).count, count_brute);

      const ScanSpec sum_spec = ScanSpec::Sum(a, b, cols);
      const int64_t sum_brute =
          BruteEval(sum_spec, f.data.keys, f.data.payload).SumResult();
      EXPECT_EQ(engine->SumPayloadRange(a, b, cols), sum_brute);
      EXPECT_EQ(ShardMerge(*engine, sum_spec).SumResult(), sum_brute);

      const ScanSpec q6_spec = ScanSpec::Q6(a, b, 1000, 9000, 8000);
      const int64_t q6_brute =
          BruteEval(q6_spec, f.data.keys, f.data.payload).SumResult();
      EXPECT_EQ(engine->TpchQ6(a, b, 1000, 9000, 8000), q6_brute);
      EXPECT_EQ(ShardMerge(*engine, q6_spec).SumResult(), q6_brute);
    }
  }
}

// Randomized specs: any composition of key range + payload predicates +
// aggregate evaluates identically on every layout, whole-engine and sharded,
// against the brute-force reference.
TEST(ScanSpecGolden, RandomizedSpecsAgreeWithBruteForceAcrossLayouts) {
  const Fixture f = MakeFixture(25000, 77);
  std::vector<std::unique_ptr<LayoutEngine>> engines;
  for (const LayoutMode mode : AllModes()) engines.push_back(BuildMode(mode, f));

  Rng rng(20260727);
  for (int i = 0; i < 120; ++i) {
    const ScanSpec spec =
        RandomSpec(rng, f.data.domain_lo, f.data.domain_hi, f.data.payload.size());
    const ScanPartial want = BruteEval(spec, f.data.keys, f.data.payload);
    for (auto& engine : engines) {
      SCOPED_TRACE(engine->name());
      ExpectPartialEq(engine->ExecuteScan(spec), want, spec, "ExecuteScan");
      ExpectPartialEq(ShardMerge(*engine, spec), want, spec, "shard merge");
    }
  }
}

// Rows keyed at BOTH integer-domain edges: full-domain specs (with and
// without payload predicates) must cover them; half-open ranges cannot.
TEST(ScanSpecGolden, FullDomainSpecsCoverDomainEdgeKeys) {
  std::vector<Value> keys = {kMinValue, kMinValue, -7, 0,
                             99,        kMaxValue, kMaxValue};
  Rng rng(5);
  for (int i = 0; i < 12000; ++i) {
    keys.push_back(static_cast<Value>(rng.Below(100000)));
  }
  std::vector<std::vector<Payload>> payload(3,
                                            std::vector<Payload>(keys.size()));
  for (auto& col : payload) {
    for (auto& v : col) v = static_cast<Payload>(rng.Below(10000));
  }
  auto wspec = hap::MakeSpec(hap::Workload::kHybridSkewed, -1000, 100000);
  Rng train_rng(6);
  const auto training = GenerateWorkload(wspec, 800, train_rng);

  Rng srng(8);
  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    LayoutBuildOptions opts;
    opts.mode = mode;
    opts.chunk_values = 4096;
    opts.block_values = 128;
    opts.calibrate_costs = false;
    opts.training = &training;
    auto engine = BuildLayout(opts, keys, payload);

    EXPECT_EQ(engine->ExecuteScan(ScanSpec::FullScan()).count, keys.size());
    for (int i = 0; i < 20; ++i) {
      ScanSpec spec = RandomSpec(srng, -1000, 100000, payload.size());
      spec.full_domain = true;  // force edge coverage
      const ScanPartial want = BruteEval(spec, keys, payload);
      ExpectPartialEq(engine->ExecuteScan(spec), want, spec, "ExecuteScan");
      ExpectPartialEq(ShardMerge(*engine, spec), want, spec, "shard merge");
    }
  }
}

// Degenerate specs: empty key ranges, impossible predicates (lo > hi,
// qty_max == 0), and out-of-range column references all evaluate to zero.
TEST(ScanSpecGolden, DegenerateSpecsEvaluateToZero) {
  const Fixture f = MakeFixture(8000, 13);
  const Value mid = (f.data.domain_lo + f.data.domain_hi) / 2;
  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);

    EXPECT_EQ(engine->CountRange(mid, mid), 0u);
    EXPECT_EQ(engine->CountRange(mid, mid - 100), 0u);
    EXPECT_EQ(engine->TpchQ6(f.data.domain_lo, f.data.domain_hi + 1, 0,
                             std::numeric_limits<Payload>::max(), 0),
              0);  // qty_max == 0 admits nothing

    ScanSpec bad_col = ScanSpec::Min(f.data.domain_lo, f.data.domain_hi + 1,
                                     /*col=*/f.data.payload.size());
    EXPECT_EQ(engine->ExecuteScan(bad_col).Result(bad_col.agg), 0u);

    ScanSpec impossible = ScanSpec::Count(f.data.domain_lo, f.data.domain_hi + 1);
    impossible.predicates.push_back({0, 5, 4});  // lo > hi
    EXPECT_EQ(engine->ExecuteScan(impossible).count, 0u);

    // Hand-built specs with too-few aggregate columns (the public
    // ExecuteScan surface accepts arbitrary specs) are degenerate, not UB.
    ScanSpec no_arity;
    no_arity.full_domain = true;
    no_arity.agg.kind = AggKind::kMin;  // cols left empty
    EXPECT_EQ(engine->ExecuteScan(no_arity).Result(no_arity.agg), 0u);
    ScanSpec half_product;
    half_product.full_domain = true;
    half_product.agg.kind = AggKind::kSumProduct;
    half_product.agg.cols = {2};  // kSumProduct reads two columns
    EXPECT_EQ(engine->ExecuteScan(half_product).Result(half_product.agg), 0u);
  }
}

// The new aggregate op kinds produce identical values through the serial
// harness, the pool fan-out, and the mixed runner, on every partitioned
// layout.
TEST(ScanSpecGolden, RunnersAgreeOnNewAggregatesAcrossLayouts) {
  const Fixture f = MakeFixture(20000, 37);
  ThreadPool pool(4);
  const Value dlo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - dlo) + 1;

  // Read-only stream over all six read kinds.
  Rng rng(23);
  std::vector<Operation> reads;
  for (int i = 0; i < 300; ++i) {
    Operation op;
    const Value a = dlo + static_cast<Value>(rng.Below(span));
    switch (rng.Below(6)) {
      case 0: op.kind = OpKind::kPointQuery; break;
      case 1: op.kind = OpKind::kRangeCount; break;
      case 2: op.kind = OpKind::kRangeSum; break;
      case 3: op.kind = OpKind::kRangeMin; break;
      case 4: op.kind = OpKind::kRangeMax; break;
      default: op.kind = OpKind::kRangeAvg; break;
    }
    op.a = a;
    if (op.kind != OpKind::kPointQuery) {
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
    }
    reads.push_back(op);
  }

  HarnessOptions serial_opts;
  serial_opts.record_latency = false;
  HarnessOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;

  // The pool paths take the partitioned layout.
  for (const LayoutMode mode :
       {LayoutMode::kEquiWidth, LayoutMode::kEquiWidthGhost, LayoutMode::kCasper}) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine =
        BuildPartitionedLayout(ModeOptions(mode, f), f.data.keys, f.data.payload);

    const uint64_t serial = RunWorkload(*engine, reads, serial_opts).checksum;
    const std::vector<size_t> cols = DefaultSumColumns(*engine);
    uint64_t fanned = 0;
    for (const Operation& op : reads) {
      if (op.kind == OpKind::kPointQuery) {
        fanned += engine->PointLookup(op.a, nullptr);
        continue;
      }
      const ScanSpec spec = SpecForOperation(op, cols);
      fanned += ExecuteScanOnPool(*engine, spec, &pool).Result(spec.agg);
    }
    EXPECT_EQ(fanned, serial);
    EXPECT_EQ(RunWorkloadMixed(*engine, reads, pool_opts).checksum, serial);
  }
}

// The CasperEngine facade's new aggregates match brute force (and hence the
// layout-level spec path) with and without a pool.
TEST(ScanSpecGolden, EngineFacadeAggregates) {
  const Fixture f = MakeFixture(15000, 61);
  for (const size_t threads : {size_t{0}, size_t{4}}) {
    EngineOptions opts;
    opts.keys = f.data.keys;
    opts.payload = f.data.payload;
    opts.training = &f.training;
    opts.layout.mode = LayoutMode::kCasper;
    opts.layout.chunk_values = 4096;
    opts.layout.block_values = 128;
    opts.layout.calibrate_costs = false;
    opts.exec_threads = threads;
    auto engine = CasperEngine::Open(std::move(opts));

    Rng rng(3);
    const uint64_t span =
        static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
    for (int i = 0; i < 50; ++i) {
      const Value a = f.data.domain_lo + static_cast<Value>(rng.Below(span));
      const Value b = a + static_cast<Value>(rng.Below(span / 4 + 1)) + 1;
      const ScanSpec min_spec = ScanSpec::Min(a, b, 1);
      const ScanSpec max_spec = ScanSpec::Max(a, b, 1);
      const ScanSpec avg_spec = ScanSpec::Avg(a, b, 1);
      EXPECT_EQ(engine.MinBetween(a, b, 1),
                BruteEval(min_spec, f.data.keys, f.data.payload).Result(min_spec.agg));
      EXPECT_EQ(engine.MaxBetween(a, b, 1),
                BruteEval(max_spec, f.data.keys, f.data.payload).Result(max_spec.agg));
      EXPECT_EQ(engine.AvgBetween(a, b, 1),
                BruteEval(avg_spec, f.data.keys, f.data.payload).Result(avg_spec.agg));
      EXPECT_EQ(engine.CountBetween(a, b),
                BruteEval(ScanSpec::Count(a, b), f.data.keys, f.data.payload).count);
    }
  }
}

}  // namespace
}  // namespace casper
