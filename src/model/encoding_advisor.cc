#include "model/encoding_advisor.h"

#include <algorithm>

namespace casper {

namespace {

/// Distinct values of a column lying in [min, max]: one bit per value of the
/// span, set in one pass, then counted.
size_t CountDistinctInSpan(const std::vector<Payload>& values, Payload min,
                           Payload max) {
  std::vector<uint64_t> bits((uint64_t{max} - uint64_t{min}) / 64 + 1, 0);
  for (const Payload v : values) {
    const uint64_t bit = uint64_t{v} - uint64_t{min};
    bits[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  size_t distinct = 0;
  for (const uint64_t word : bits) {
    distinct += static_cast<size_t>(__builtin_popcountll(word));
  }
  return distinct;
}

}  // namespace

PayloadColumnProfile ProfilePayloadValues(const std::vector<Payload>& values) {
  PayloadColumnProfile p;
  p.rows = values.size();
  if (values.empty()) return p;
  const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  p.min = *mn;
  p.max = *mx;
  if (ProfileUsesBitmap(p.min, p.max, p.rows)) {
    p.distinct = CountDistinctInSpan(values, p.min, p.max);
    return p;
  }
  // Wide, sparse column: a bitmap of [min, max] would outgrow a sorted copy.
  std::vector<Payload> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  p.distinct = static_cast<size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  return p;
}

PayloadEncoding ChooseDiskEncoding(const PayloadColumnProfile& p) {
  if (p.rows == 0) return PayloadEncoding::kFrameOfReference;
  const unsigned for_width =
      BitsFor(static_cast<uint64_t>(p.max) - static_cast<uint64_t>(p.min));
  const unsigned dict_width = BitsFor(p.distinct - 1);
  // Total stored bits decide: packed codes plus the dictionary entries
  // themselves versus packed FoR offsets.
  const uint64_t for_bits = p.rows * uint64_t{for_width};
  const uint64_t dict_bits = p.rows * uint64_t{dict_width} +
                             p.distinct * uint64_t{8 * sizeof(Payload)};
  return dict_bits < for_bits ? PayloadEncoding::kDictionary
                              : PayloadEncoding::kFrameOfReference;
}

}  // namespace casper
