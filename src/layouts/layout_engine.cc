#include "layouts/layout_engine.h"

namespace casper {

void KeyDerivedPayload(Value key, size_t num_columns, std::vector<Payload>* out) {
  out->resize(num_columns);
  // |key| taken in uint64_t: negating kMinValue as a Value would overflow.
  const uint64_t bits = static_cast<uint64_t>(key);
  const uint64_t base = key < 0 ? 0 - bits : bits;
  for (size_t c = 0; c < num_columns; ++c) {
    (*out)[c] = static_cast<Payload>((base * (c + 1)) % 10000);
  }
}

std::vector<size_t> DefaultSumColumns(const LayoutEngine& engine) {
  std::vector<size_t> cols;
  const size_t n = engine.num_payload_columns() < 2 ? engine.num_payload_columns() : 2;
  for (size_t c = 0; c < n; ++c) cols.push_back(c);
  return cols;
}

OperationInterpreter::OperationInterpreter(LayoutEngine& engine) : engine_(engine) {
  const std::vector<size_t> cols = DefaultSumColumns(engine);
  for (const OpKind kind : {OpKind::kRangeCount, OpKind::kRangeSum, OpKind::kRangeMin,
                            OpKind::kRangeMax, OpKind::kRangeAvg}) {
    specs_[static_cast<size_t>(kind)] = SpecForOperation({kind, 0, 0}, cols);
  }
}

uint64_t OperationInterpreter::Apply(const Operation& op) {
  switch (op.kind) {
    case OpKind::kPointQuery:
      return engine_.PointLookup(op.a, nullptr);
    case OpKind::kInsert:
      KeyDerivedPayload(op.a, engine_.num_payload_columns(), &payload_);
      engine_.Insert(op.a, payload_);
      return 0;
    case OpKind::kDelete:
      return engine_.Delete(op.a);
    case OpKind::kUpdate:
      return engine_.UpdateKey(op.a, op.b) ? 1 : 0;
    case OpKind::kRangeCount:
    case OpKind::kRangeSum:
    case OpKind::kRangeMin:
    case OpKind::kRangeMax:
    case OpKind::kRangeAvg:
      break;
  }
  ScanSpec& spec = specs_[static_cast<size_t>(op.kind)];
  spec.lo = op.a;
  spec.hi = op.b;
  return engine_.ExecuteScan(spec).Result(spec.agg);
}

ScanPartial LayoutEngine::ExecuteScan(const ScanSpec& spec) const {
  ScanPartial total;
  const size_t shards = NumShards();
  for (size_t s = 0; s < shards; ++s) total.Merge(ScanSpecShard(s, spec));
  return total;
}

}  // namespace casper
