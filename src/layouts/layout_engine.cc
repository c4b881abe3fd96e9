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

ScanPartial LayoutEngine::ExecuteScan(const ScanSpec& spec) const {
  ScanPartial total;
  const size_t shards = NumShards();
  for (size_t s = 0; s < shards; ++s) total.Merge(ScanSpecShard(s, spec));
  return total;
}

}  // namespace casper
