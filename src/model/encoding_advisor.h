#ifndef CASPER_MODEL_ENCODING_ADVISOR_H_
#define CASPER_MODEL_ENCODING_ADVISOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compression/packed_column.h"
#include "storage/types.h"

namespace casper {

/// The value-shape statistics a payload column's encoding is chosen from.
struct PayloadColumnProfile {
  size_t rows = 0;
  size_t distinct = 0;
  Payload min = 0;
  Payload max = 0;
};

/// Widest value span, in values per column row, that ProfilePayloadValues
/// counts distinct values over with a bitmap of [min, max]: at one bit per
/// value, a span of up to 32 x rows is no larger than the sorted copy of the
/// column (32 bits per row) the profile makes otherwise.
inline constexpr uint64_t kMaxProfileBitmapBitsPerRow = 8 * sizeof(Payload);

/// True when ProfilePayloadValues takes the bitmap path for a `rows`-row
/// column spanning [min, max]: max - min + 1 <= 32 x rows.
inline bool ProfileUsesBitmap(Payload min, Payload max, size_t rows) {
  return uint64_t{max} - uint64_t{min} < kMaxProfileBitmapBitsPerRow * rows;
}

/// min/max and exact distinct count of a column: one pass over a bitmap of
/// [min, max] when ProfileUsesBitmap, a sorted copy otherwise.
PayloadColumnProfile ProfilePayloadValues(const std::vector<Payload>& values);

/// The one payload encoding rule, applied to every column of a chunk file
/// (EncodeChunkRows): dictionary when rows * code_width + dictionary storage
/// beats rows * FoR width, FoR otherwise. There is no raw option and no
/// payoff gate: in a chunk file compactness beats decode cost.
PayloadEncoding ChooseDiskEncoding(const PayloadColumnProfile& profile);

}  // namespace casper

#endif  // CASPER_MODEL_ENCODING_ADVISOR_H_
