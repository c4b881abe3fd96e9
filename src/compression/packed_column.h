#ifndef CASPER_COMPRESSION_PACKED_COLUMN_H_
#define CASPER_COMPRESSION_PACKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "compression/bitpack.h"
#include "storage/types.h"

namespace casper {

/// Per-column physical encodings of a packed payload column (ByteStore: the
/// biggest hybrid-workload wins come from choosing the encoding per column,
/// not per table).
enum class PayloadEncoding {
  kFrameOfReference,  ///< base + bit-packed offsets (paper §6.2 FoR)
  kDictionary,        ///< order-preserving dictionary + bit-packed codes
};

/// One payload column of a chunk file in its packed form: fixed-width
/// offsets (FoR, unsigned deltas from the column minimum) or codes into a
/// sorted dictionary, plus decode-at-row. Scans decode the rows they read
/// into flat arrays and evaluate there (storage/partition_scan.h).
///
/// Instances are immutable after Encode and safe to share across threads.
class PackedPayloadColumn {
 public:
  /// Encodes `values` with `enc`; nullptr for an empty column.
  static std::shared_ptr<const PackedPayloadColumn> Encode(
      const std::vector<Payload>& values, PayloadEncoding enc);
  /// Same, for a caller that already knows the column's min and max (the
  /// column profile): FoR takes its base and width from them instead of a
  /// second pass over `values`.
  static std::shared_ptr<const PackedPayloadColumn> Encode(
      const std::vector<Payload>& values, PayloadEncoding enc, Payload min,
      Payload max);

  /// Reassembles a column from its serialized pieces (the on-disk chunk
  /// format stores the encoding tag, the FoR base or the sorted dictionary,
  /// and the packed words verbatim). The caller has checked that every code
  /// indexes the dictionary.
  static std::shared_ptr<const PackedPayloadColumn> FromParts(
      PayloadEncoding enc, Payload base, std::vector<Payload> dict,
      BitPackedArray packed);

  PayloadEncoding encoding() const { return enc_; }
  size_t size() const { return packed_.size(); }
  unsigned bit_width() const { return packed_.bit_width(); }

  /// The FoR reference (column minimum); 0 for dictionary encodings.
  Payload base() const { return base_; }
  size_t dictionary_size() const { return dict_.size(); }
  /// Sorted distinct values (empty for FoR); serialization surface.
  const std::vector<Payload>& dictionary() const { return dict_; }
  /// The packed offsets/codes array itself; serialization surface.
  const BitPackedArray& packed_array() const { return packed_; }

  /// Decodes the payload value at row position i.
  Payload DecodeAt(size_t i) const;
  std::vector<Payload> DecodeAll() const;

  /// Effective bits per row including the dictionary overhead
  /// (compression-ratio reporting).
  double MeanBitsPerValue() const;
  size_t CompressedBytes() const;

 private:
  PackedPayloadColumn() = default;

  PayloadEncoding enc_ = PayloadEncoding::kFrameOfReference;
  Payload base_ = 0;            ///< FoR reference (column minimum)
  std::vector<Payload> dict_;   ///< sorted distinct values (dictionary only)
  BitPackedArray packed_;       ///< offsets (FoR) or codes (dictionary)
};

}  // namespace casper

#endif  // CASPER_COMPRESSION_PACKED_COLUMN_H_
