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

/// One payload column encoded behind the common packed-column surface the
/// scan kernels see through: fixed-width packed words (`words()` +
/// `bit_width()`), decode-at-slot, and value-space predicates rewritten into
/// packed space once per chunk (`RewritePredicate`). FoR stores payloads as
/// unsigned offsets from the column minimum; the dictionary is sorted, so
/// closed value ranges map to closed code ranges and scans run on the codes.
///
/// Predicate-free sums are served from block-level prefix sums materialized
/// at encode time (one u64 per kSumBlock rows, payload-space, wrapping):
/// SumRows answers interior blocks in O(1) and only the two block edges
/// touch packed words — still bit-identical to the flat-array kernels, since
/// wrapping u64 addition is associative.
///
/// Instances are immutable after Encode and safe to share across threads.
class PackedPayloadColumn {
 public:
  /// Rows per materialized prefix-sum block.
  static constexpr size_t kSumBlock = 4096;

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
  /// and the packed words verbatim). The derived structures the file does
  /// not carry — the widened dictionary lut and the block prefix sums — are
  /// rebuilt here, deterministically, so a reassembled column is
  /// indistinguishable from one Encode produced.
  static std::shared_ptr<const PackedPayloadColumn> FromParts(
      PayloadEncoding enc, Payload base, std::vector<Payload> dict,
      BitPackedArray packed);

  PayloadEncoding encoding() const { return enc_; }
  size_t size() const { return packed_.size(); }
  unsigned bit_width() const { return packed_.bit_width(); }
  const uint64_t* words() const { return packed_.words(); }

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

  /// Rewrites the CLOSED payload predicate [lo, hi] into the CLOSED
  /// packed-domain range [*plo, *phi] (offset space for FoR, code space for
  /// the dictionary). Returns false when no encoded value can qualify — the
  /// whole-run veto (lo > hi, range below the FoR base, or a dictionary with
  /// no entry in [lo, hi]).
  bool RewritePredicate(Payload lo, Payload hi, uint64_t* plo,
                        uint64_t* phi) const;

  /// Wrapping-u64 payload-space sum of rows [begin, end) (clamped to size).
  uint64_t SumRows(size_t begin, size_t end) const;

  /// Decoded dictionary as a u64 lut for kernels::SumPackedLookup; nullptr
  /// for FoR encodings.
  const uint64_t* lut() const { return lut_.empty() ? nullptr : lut_.data(); }

  /// Effective bits per row including the dictionary and prefix-sum
  /// overheads (compression-ratio reporting).
  double MeanBitsPerValue() const;
  size_t CompressedBytes() const;
  size_t UncompressedBytes() const { return size() * sizeof(Payload); }

 private:
  PackedPayloadColumn() = default;

  /// Packed-domain sum of rows [begin, end) lifted to payload space.
  uint64_t SumEdge(size_t begin, size_t end) const;

  PayloadEncoding enc_ = PayloadEncoding::kFrameOfReference;
  Payload base_ = 0;            ///< FoR reference (column minimum)
  std::vector<Payload> dict_;   ///< sorted distinct values (dictionary only)
  std::vector<uint64_t> lut_;   ///< dict_ widened for the gather kernel
  BitPackedArray packed_;       ///< offsets (FoR) or codes (dictionary)
  /// prefix_[b] = payload-space sum of rows [0, b * kSumBlock), wrapping.
  std::vector<uint64_t> prefix_;
};

}  // namespace casper

#endif  // CASPER_COMPRESSION_PACKED_COLUMN_H_
