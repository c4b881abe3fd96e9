#include "storage/chunk_rows.h"

#include <algorithm>
#include <numeric>

#include "model/encoding_advisor.h"
#include "util/status.h"

namespace casper {

ChunkEncoding EncodeChunkRows(const ChunkRows& rows) {
  const size_t parts = rows.parts.size();
  const size_t n = rows.keys.size();
  ChunkEncoding enc;
  enc.live_prefix.assign(parts + 1, 0);
  std::vector<size_t> frames;
  for (size_t t = 0; t < parts; ++t) {
    const size_t size = rows.parts[t].size;
    enc.live_prefix[t + 1] = enc.live_prefix[t] + size;
    if (size > 0) frames.push_back(size);
  }
  CASPER_CHECK_MSG(enc.live_prefix[parts] == n,
                   "partition sizes do not cover the live keys");
  if (n > 0) enc.keys = std::make_shared<FrameOfReferenceColumn>(rows.keys, frames);
  enc.payload.resize(rows.payload.size());
  enc.payload_zones.resize(rows.payload.size());
  for (size_t c = 0; c < rows.payload.size(); ++c) {
    const std::vector<Payload>& col = rows.payload[c];
    CASPER_CHECK(col.size() == n);
    if (n > 0) {
      const PayloadColumnProfile p = ProfilePayloadValues(col);
      enc.payload[c] =
          PackedPayloadColumn::Encode(col, ChooseDiskEncoding(p), p.min, p.max);
    }
    auto& zones = enc.payload_zones[c];
    zones.assign(parts, PayloadZone{});
    for (size_t t = 0; t < parts; ++t) {
      const auto begin = col.begin() + static_cast<ptrdiff_t>(enc.live_prefix[t]);
      const auto end = col.begin() + static_cast<ptrdiff_t>(enc.live_prefix[t + 1]);
      if (begin == end) continue;
      const auto [mn, mx] = std::minmax_element(begin, end);
      zones[t] = PayloadZone{*mn, *mx};
    }
  }
  return enc;
}

void SortWithinPartitions(ChunkRows* rows) {
  std::vector<Value>& keys = rows->keys;
  std::vector<size_t> order;
  std::vector<Value> sorted_keys;
  std::vector<Payload> sorted_col;
  size_t begin = 0;
  for (const auto& p : rows->parts) {
    const size_t end = begin + p.size;
    const auto first = keys.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = keys.begin() + static_cast<ptrdiff_t>(end);
    if (!std::is_sorted(first, last)) {
      order.resize(p.size);
      std::iota(order.begin(), order.end(), begin);
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return keys[a] < keys[b]; });
      sorted_keys.clear();
      for (const size_t i : order) sorted_keys.push_back(keys[i]);
      std::copy(sorted_keys.begin(), sorted_keys.end(), first);
      for (std::vector<Payload>& col : rows->payload) {
        sorted_col.clear();
        for (const size_t i : order) sorted_col.push_back(col[i]);
        std::copy(sorted_col.begin(), sorted_col.end(),
                  col.begin() + static_cast<ptrdiff_t>(begin));
      }
    }
    begin = end;
  }
}

}  // namespace casper
