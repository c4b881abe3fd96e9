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

PayloadEncoding ChoosePayloadEncoding(const PayloadColumnProfile& profile) {
  if (profile.rows == 0) return PayloadEncoding::kRaw;
  // Update-heavy chunks churn the cache faster than an encode amortizes.
  if (profile.writes > profile.reads) return PayloadEncoding::kRaw;
  // Predicted mean bits per value. The dictionary pays the code width plus
  // the amortized dictionary storage (32-bit entry + 64-bit lut entry per
  // distinct value); FoR pays the width of the value range.
  const double dict_bits =
      static_cast<double>(BitsFor(profile.distinct == 0 ? 0
                                                        : profile.distinct - 1)) +
      96.0 * static_cast<double>(profile.distinct) /
          static_cast<double>(profile.rows);
  const double for_bits = static_cast<double>(
      BitsFor(static_cast<uint64_t>(profile.max) -
              static_cast<uint64_t>(profile.min)));
  const double best = std::min(dict_bits, for_bits);
  if (best > kMaxPayloadMeanBits) return PayloadEncoding::kRaw;
  // Ties favor FoR: same bits, no dictionary indirection on decode.
  return for_bits <= dict_bits ? PayloadEncoding::kFrameOfReference
                               : PayloadEncoding::kDictionary;
}

std::shared_ptr<const PackedPayloadColumn> AdvisePayloadEncoding(
    const std::vector<Payload>& values, uint64_t reads, uint64_t writes) {
  PayloadColumnProfile profile = ProfilePayloadValues(values);
  profile.reads = reads;
  profile.writes = writes;
  const PayloadEncoding enc = ChoosePayloadEncoding(profile);
  if (enc == PayloadEncoding::kRaw) return nullptr;
  auto col = PackedPayloadColumn::Encode(values, enc, profile.min, profile.max);
  // Re-check the payoff gate on the built column: the prediction ignores the
  // prefix-sum blocks and per-array padding, so verify the real footprint.
  if (col && col->MeanBitsPerValue() > kMaxPayloadMeanBits) return nullptr;
  return col;
}

}  // namespace casper
