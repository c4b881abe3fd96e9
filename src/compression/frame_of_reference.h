#ifndef CASPER_COMPRESSION_FRAME_OF_REFERENCE_H_
#define CASPER_COMPRESSION_FRAME_OF_REFERENCE_H_

#include <vector>

#include "compression/bitpack.h"
#include "storage/types.h"

namespace casper {

/// Frame-of-reference (delta) compression with per-frame references
/// (paper §6.2). Frames typically align with partitions — Casper's
/// fine partitioning of hot ranges shrinks per-frame value ranges, which
/// directly shrinks the delta bit width: the partitioning/compression
/// synergy the paper describes ("the more we read a partition the more
/// compressed it is").
class FrameOfReferenceColumn {
 public:
  /// `frame_sizes` must sum to values.size(); each frame stores min(frame)
  /// as its reference plus bit-packed offsets.
  FrameOfReferenceColumn(const std::vector<Value>& values,
                         const std::vector<size_t>& frame_sizes);

  /// Convenience: fixed frame width.
  FrameOfReferenceColumn(const std::vector<Value>& values, size_t frame_width);

  size_t size() const;
  Value Get(size_t i) const;

  /// Per-scan accounting of the compressed read path, mirroring the
  /// uncompressed chunk counters: pruned = skipped entirely by the frame
  /// zone map, blind = fully qualifying (consumed via the element count),
  /// scanned/decoded = frames whose packed blocks were actually evaluated.
  struct ScanStats {
    uint64_t frames_pruned = 0;
    uint64_t frames_blind = 0;
    uint64_t frames_scanned = 0;
    uint64_t elements_decoded = 0;
  };

  /// Count of values in [lo, hi); frames are skipped via their min/max and
  /// surviving frames are evaluated on the packed words (scan-on-compressed,
  /// kernels::CountPackedInRange — no materialization).
  uint64_t CountRange(Value lo, Value hi, ScanStats* stats = nullptr) const;

  /// Sum of all values (decompression-free aggregate: sum of references +
  /// packed offsets).
  int64_t SumAll() const;

  std::vector<Value> DecodeAll() const;

  size_t CompressedBytes() const;
  size_t UncompressedBytes() const { return size() * sizeof(Value); }
  double CompressionRatio() const {
    return static_cast<double>(UncompressedBytes()) /
           static_cast<double>(CompressedBytes());
  }

  /// Mean bits per value across frames (the synergy metric).
  double MeanBitsPerValue() const;

  size_t num_frames() const { return frames_.size(); }
  unsigned frame_bit_width(size_t f) const { return frames_[f].offsets.bit_width(); }

  // --- Serialization surface (src/persist chunk format) ----------------------
  // The on-disk codec writes each frame's reference/max/begin plus its packed
  // words verbatim and reassembles the column without re-encoding, so a cold
  // read scans exactly the words the warm cache held.

  Value frame_reference(size_t f) const { return frames_[f].reference; }
  Value frame_max(size_t f) const { return frames_[f].max; }
  size_t frame_begin(size_t f) const { return frames_[f].begin; }
  const BitPackedArray& frame_offsets(size_t f) const {
    return frames_[f].offsets;
  }

  /// One deserialized frame (reference, zonemap max, global begin, words).
  struct FramePieces {
    Value reference = 0;
    Value max = 0;
    size_t begin = 0;
    BitPackedArray offsets;
  };

  /// Reassembles a column from deserialized frames. Frames must be ordered,
  /// contiguous from position 0, and cover `count` values exactly.
  static FrameOfReferenceColumn FromFrames(std::vector<FramePieces> frames,
                                           size_t count);

 private:
  struct Frame {
    Value reference;  // frame minimum
    Value max;        // frame maximum (zonemap for skipping)
    size_t begin;     // global position of the first value
    BitPackedArray offsets;
  };

  FrameOfReferenceColumn() = default;

  void BuildFrames(const std::vector<Value>& values,
                   const std::vector<size_t>& frame_sizes);

  std::vector<Frame> frames_;
  size_t count_ = 0;
};

}  // namespace casper

#endif  // CASPER_COMPRESSION_FRAME_OF_REFERENCE_H_
