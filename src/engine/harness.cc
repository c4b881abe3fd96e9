#include "engine/harness.h"

#include <sstream>

#include "exec/mixed_workload_runner.h"
#include "util/stopwatch.h"

namespace casper {

HarnessResult RunWorkload(LayoutEngine& engine, const std::vector<Operation>& ops,
                          const HarnessOptions& options) {
  HarnessResult result;
  result.ops = ops.size();
  for (auto& rec : result.latency) rec.Reserve(ops.size() / 4 + 1);

  std::vector<Payload> payload(engine.num_payload_columns());
  std::vector<Payload> row_out;
  const std::vector<size_t> q3_cols = DefaultSumColumns(engine);

  // One spec per aggregate shape for the whole replay — only the key range
  // mutates per op, so the hot loop never re-allocates the column lists.
  ScanSpec sum_spec = ScanSpec::Sum(0, 0, q3_cols);
  ScanSpec min_spec = SpecForOperation({OpKind::kRangeMin, 0, 0}, q3_cols);
  ScanSpec max_spec = SpecForOperation({OpKind::kRangeMax, 0, 0}, q3_cols);
  ScanSpec avg_spec = SpecForOperation({OpKind::kRangeAvg, 0, 0}, q3_cols);
  auto run_spec = [&](ScanSpec& spec, const Operation& op) {
    spec.lo = op.a;
    spec.hi = op.b;
    return engine.ExecuteScan(spec).Result(spec.agg);
  };

  Stopwatch total;
  Stopwatch per_op;
  for (const Operation& op : ops) {
    if (options.record_latency) per_op.Restart();
    switch (op.kind) {
      case OpKind::kPointQuery:
        result.checksum += engine.PointLookup(op.a, &row_out);
        break;
      case OpKind::kRangeCount:
        result.checksum += engine.CountRange(op.a, op.b);
        break;
      case OpKind::kRangeSum:
        result.checksum += run_spec(sum_spec, op);
        break;
      case OpKind::kRangeMin:
        result.checksum += run_spec(min_spec, op);
        break;
      case OpKind::kRangeMax:
        result.checksum += run_spec(max_spec, op);
        break;
      case OpKind::kRangeAvg:
        result.checksum += run_spec(avg_spec, op);
        break;
      case OpKind::kInsert:
        KeyDerivedPayload(op.a, payload.size(), &payload);
        engine.Insert(op.a, payload);
        break;
      case OpKind::kDelete:
        result.checksum += engine.Delete(op.a);
        break;
      case OpKind::kUpdate:
        result.checksum += engine.UpdateKey(op.a, op.b) ? 1 : 0;
        break;
    }
    if (options.record_latency) {
      result.Rec(op.kind).Record(per_op.ElapsedNanos());
    }
  }
  result.seconds = total.ElapsedSeconds();
  return result;
}

HarnessResult RunWorkload(LayoutEngine& engine, const std::vector<Operation>& ops) {
  return RunWorkload(engine, ops, HarnessOptions{});
}

HarnessResult RunWorkloadMixed(PartitionedLayout& engine,
                               const std::vector<Operation>& ops,
                               const HarnessOptions& options) {
  HarnessResult result;
  result.ops = ops.size();
  // Sums DefaultSumColumns(engine), as the serial replay does, so checksums
  // line up.
  const MixedWorkloadRunner runner(options.pool);
  Stopwatch total;
  result.checksum = runner.Run(engine, ops).checksum;
  result.seconds = total.ElapsedSeconds();
  return result;
}

std::string FormatResult(const HarnessResult& r) {
  std::ostringstream oss;
  oss << r.ThroughputOpsPerSec() << " ops/s";
  for (int k = 0; k < kNumOpKinds; ++k) {
    const auto& rec = r.latency[static_cast<size_t>(k)];
    if (rec.count() == 0) continue;
    oss << "  " << OpKindName(static_cast<OpKind>(k)) << "=" << rec.MeanMicros()
        << "us";
  }
  return oss.str();
}

}  // namespace casper
