#include "layouts/layout_engine.h"

#include "model/encoding_advisor.h"
#include "storage/compressed_cache.h"

namespace casper {

void KeyDerivedPayload(Value key, size_t num_columns, std::vector<Payload>* out) {
  out->resize(num_columns);
  const uint64_t base = static_cast<uint64_t>(key < 0 ? -key : key);
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

std::shared_ptr<const ChunkEncoding> EncodeSingleStore(
    const std::vector<Value>& keys,
    const std::vector<std::vector<Payload>>& payload) {
  auto enc = std::make_shared<ChunkEncoding>();
  enc->keys = std::make_shared<FrameOfReferenceColumn>(keys, size_t{4096});
  enc->payload.resize(payload.size());
  for (size_t c = 0; c < payload.size(); ++c) {
    enc->payload[c] = AdvisePayloadEncoding(payload[c], /*reads=*/1, /*writes=*/0);
  }
  return enc;
}

ScanPartial LayoutEngine::ExecuteScan(const ScanSpec& spec) const {
  // Index-order merge over the sharded surface; layouts with a cheaper
  // whole-engine evaluation override this (the merge is associative, so the
  // two paths are bit-identical).
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

void LayoutEngine::LookupBatch(const Value* keys, size_t n, uint64_t* out_counts,
                               ThreadPool* /*pool*/) const {
  // Serial fallback: one probe per key. Layouts with routable or scannable
  // structure override with grouped variants.
  for (size_t i = 0; i < n; ++i) {
    out_counts[i] = PointLookup(keys[i], nullptr);
  }
}

void LayoutEngine::InsertRows(const Row* rows, size_t n, ThreadPool* /*pool*/) {
  // Serial fallback: one routed insert per row. Layouts with a groupable
  // write path override with bulk variants.
  for (size_t i = 0; i < n; ++i) Insert(rows[i].key, rows[i].payload);
}

BatchResult LayoutEngine::ApplyBatch(const Operation* ops, size_t n,
                                     ThreadPool* /*pool*/) {
  // Serial fallback: apply in order. Layouts with a routable write path
  // (partitioned, no-order, sorted, delta) override with grouped variants.
  BatchResult result;
  const std::vector<size_t> sum_cols = DefaultSumColumns(*this);
  for (size_t i = 0; i < n; ++i) ApplyOperation(*this, ops[i], &result, sum_cols);
  return result;
}

}  // namespace casper
