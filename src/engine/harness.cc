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

  OperationInterpreter interpreter(engine);
  Stopwatch total;
  Stopwatch per_op;
  for (const Operation& op : ops) {
    if (options.record_latency) per_op.Restart();
    result.checksum += interpreter.Apply(op);
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
  // The runner applies ops through OperationInterpreter, as the serial
  // replay does, so checksums line up.
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
