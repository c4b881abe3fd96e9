#include "compression/packed_column.h"

#include <algorithm>

#include "util/status.h"

namespace casper {

std::shared_ptr<const PackedPayloadColumn> PackedPayloadColumn::Encode(
    const std::vector<Payload>& values, PayloadEncoding enc) {
  if (values.empty()) return nullptr;
  const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  return Encode(values, enc, *mn, *mx);
}

std::shared_ptr<const PackedPayloadColumn> PackedPayloadColumn::Encode(
    const std::vector<Payload>& values, PayloadEncoding enc, Payload min,
    Payload max) {
  if (values.empty()) return nullptr;
  // make_shared cannot call the private constructor; the factory keeps the
  // invariant that every published column is fully encoded.
  // NOLINTNEXTLINE(modernize-make-shared)
  auto col = std::shared_ptr<PackedPayloadColumn>(new PackedPayloadColumn());
  col->enc_ = enc;
  if (enc == PayloadEncoding::kFrameOfReference) {
    col->base_ = min;
    const uint64_t base = uint64_t{min};
    col->packed_ = BitPackedArray::Pack(
        values.size(), BitsFor(uint64_t{max} - base),
        [&](size_t i) { return uint64_t{values[i]} - base; });
  } else {
    col->dict_ = values;
    std::sort(col->dict_.begin(), col->dict_.end());
    col->dict_.erase(std::unique(col->dict_.begin(), col->dict_.end()),
                     col->dict_.end());
    const std::vector<Payload>& dict = col->dict_;
    col->packed_ = BitPackedArray::Pack(
        values.size(), BitsFor(dict.size() - 1), [&](size_t i) {
          return static_cast<uint64_t>(
              std::lower_bound(dict.begin(), dict.end(), values[i]) -
              dict.begin());
        });
  }
  return col;
}

std::shared_ptr<const PackedPayloadColumn> PackedPayloadColumn::FromParts(
    PayloadEncoding enc, Payload base, std::vector<Payload> dict,
    BitPackedArray packed) {
  if (enc == PayloadEncoding::kDictionary) {
    CASPER_CHECK_MSG(!dict.empty() && std::is_sorted(dict.begin(), dict.end()),
                     "dictionary must be sorted and non-empty");
  }
  // NOLINTNEXTLINE(modernize-make-shared)
  auto col = std::shared_ptr<PackedPayloadColumn>(new PackedPayloadColumn());
  col->enc_ = enc;
  col->base_ = enc == PayloadEncoding::kFrameOfReference ? base : 0;
  col->dict_ = std::move(dict);
  col->packed_ = std::move(packed);
  return col;
}

Payload PackedPayloadColumn::DecodeAt(size_t i) const {
  const uint64_t p = packed_.Get(i);
  if (enc_ == PayloadEncoding::kFrameOfReference) {
    return static_cast<Payload>(static_cast<uint64_t>(base_) + p);
  }
  return dict_[p];
}

std::vector<Payload> PackedPayloadColumn::DecodeAll() const {
  std::vector<Payload> out(size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = DecodeAt(i);
  return out;
}

size_t PackedPayloadColumn::CompressedBytes() const {
  return packed_.bytes() + dict_.size() * sizeof(Payload);
}

double PackedPayloadColumn::MeanBitsPerValue() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(CompressedBytes()) * 8.0 /
         static_cast<double>(size());
}

}  // namespace casper
