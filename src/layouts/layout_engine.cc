#include "layouts/layout_engine.h"

#include <utility>

#include "util/status.h"

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

ScanPartial LayoutEngine::ExecuteScan(const ScanSpec& spec) const {
  ScanPartial total;
  const size_t shards = NumShards();
  for (size_t s = 0; s < shards; ++s) total.Merge(ScanSpecShard(s, spec));
  return total;
}

void ApplyOperation(LayoutEngine& engine, const Operation& op, BatchResult* result,
                    const std::vector<size_t>& sum_cols) {
  switch (op.kind) {
    case OpKind::kPointQuery:
      result->query_checksum += engine.PointLookup(op.a, nullptr);
      break;
    case OpKind::kRangeCount:
      result->query_checksum += engine.CountRange(op.a, op.b);
      break;
    case OpKind::kRangeSum:
    case OpKind::kRangeMin:
    case OpKind::kRangeMax:
    case OpKind::kRangeAvg: {
      const ScanSpec spec = SpecForOperation(op, sum_cols);
      result->query_checksum += engine.ExecuteScan(spec).Result(spec.agg);
      break;
    }
    case OpKind::kInsert: {
      std::vector<Payload> payload;
      KeyDerivedPayload(op.a, engine.num_payload_columns(), &payload);
      engine.Insert(op.a, payload);
      ++result->inserts;
      break;
    }
    case OpKind::kDelete:
      result->deletes += engine.Delete(op.a);
      break;
    case OpKind::kUpdate:
      result->updates += engine.UpdateKey(op.a, op.b) ? 1 : 0;
      break;
  }
}

void ApplyOperation(LayoutEngine& engine, const Operation& op, BatchResult* result) {
  ApplyOperation(engine, op, result, DefaultSumColumns(engine));
}

BatchResult LayoutEngine::ApplyBatch(const Operation* ops, size_t n,
                                     ThreadPool* pool) {
  BatchResult result;
  const std::vector<size_t> sum_cols = DefaultSumColumns(*this);
  const size_t cols = num_payload_columns();
  std::vector<BatchWrite> run;
  auto flush_run = [&] {
    if (run.empty()) return;
    result.deletes += ApplyWriteRun(run, pool);
    run.clear();
  };
  for (size_t i = 0; i < n; ++i) {
    const Operation& op = ops[i];
    if (op.kind != OpKind::kInsert && op.kind != OpKind::kDelete) {
      flush_run();
      ApplyOperation(*this, op, &result, sum_cols);
      continue;
    }
    BatchWrite w;
    w.key = op.a;
    w.is_insert = op.kind == OpKind::kInsert;
    if (w.is_insert) {
      KeyDerivedPayload(op.a, cols, &w.payload);
      ++result.inserts;
    }
    run.push_back(std::move(w));
  }
  flush_run();
  return result;
}

void LayoutEngine::InsertRows(const Row* rows, size_t n, ThreadPool* pool) {
  const size_t cols = num_payload_columns();
  std::vector<BatchWrite> run(n);
  for (size_t i = 0; i < n; ++i) {
    CASPER_CHECK_MSG(rows[i].payload.size() == cols,
                     "row payload width != table payload columns");
    run[i].key = rows[i].key;
    run[i].is_insert = true;
    run[i].payload = rows[i].payload;
  }
  ApplyWriteRun(run, pool);
}

}  // namespace casper
