#ifndef CASPER_COMPRESSION_BITPACK_H_
#define CASPER_COMPRESSION_BITPACK_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace casper {

/// Fixed-width bit packing into 64-bit words; the storage primitive shared
/// by the dictionary and frame-of-reference codecs (paper §6.2).
class BitPackedArray {
 public:
  BitPackedArray() = default;

  BitPackedArray(size_t count, unsigned bit_width)
      : count_(count), width_(bit_width) {
    CASPER_CHECK(bit_width <= 64);
    words_.assign((count * width_ + 63) / 64 + 1, 0);
  }

  /// Writes one value in place. The encoders pack with Pack; Set is the
  /// per-value reference the tests compare Pack's words against.
  void Set(size_t i, uint64_t value) {
    CASPER_CHECK(i < count_);
    if (width_ == 0) return;
    const uint64_t mask = width_ == 64 ? ~uint64_t{0} : ((uint64_t{1} << width_) - 1);
    CASPER_CHECK((value & ~mask) == 0);
    const size_t bit = i * width_;
    const size_t word = bit / 64;
    const unsigned offset = bit % 64;
    words_[word] &= ~(mask << offset);
    words_[word] |= value << offset;
    if (offset + width_ > 64) {
      const unsigned spill = offset + width_ - 64;
      words_[word + 1] &= ~(mask >> (width_ - spill));
      words_[word + 1] |= value >> (width_ - spill);
    }
  }

  /// Packs value_at(0) .. value_at(count - 1) in one sequential pass that
  /// writes each word once: the words equal those of an array filled by
  /// Set(i, value_at(i)) for every i. Every value must fit `bit_width` bits
  /// (checked once, after the pass).
  template <typename ValueAt>
  static BitPackedArray Pack(size_t count, unsigned bit_width,
                             const ValueAt& value_at) {
    CASPER_CHECK(bit_width <= 64);
    std::vector<uint64_t> words;
    words.reserve(WordsFor(count, bit_width));
    if (bit_width > 0) {
      const uint64_t mask =
          bit_width == 64 ? ~uint64_t{0} : ((uint64_t{1} << bit_width) - 1);
      uint64_t overflow = 0;
      uint64_t acc = 0;   // the word being filled
      unsigned fill = 0;  // bits of `acc` already used, always < 64
      for (size_t i = 0; i < count; ++i) {
        const uint64_t v = value_at(i);
        overflow |= v & ~mask;
        acc |= v << fill;
        fill += bit_width;
        if (fill >= 64) {
          words.push_back(acc);
          fill -= 64;
          // The bits of v that did not fit start the next word.
          acc = fill == 0 ? 0 : v >> (bit_width - fill);
        }
      }
      if (fill > 0) words.push_back(acc);
      CASPER_CHECK_MSG(overflow == 0, "packed value exceeds the bit width");
    }
    words.resize(WordsFor(count, bit_width), 0);
    return FromWords(count, bit_width, std::move(words));
  }

  uint64_t Get(size_t i) const {
    CASPER_CHECK(i < count_);
    if (width_ == 0) return 0;
    const uint64_t mask = width_ == 64 ? ~uint64_t{0} : ((uint64_t{1} << width_) - 1);
    const size_t bit = i * width_;
    const size_t word = bit / 64;
    const unsigned offset = bit % 64;
    uint64_t v = words_[word] >> offset;
    if (offset + width_ > 64) {
      v |= words_[word + 1] << (64 - offset);
    }
    return v & mask;
  }

  size_t size() const { return count_; }
  unsigned bit_width() const { return width_; }
  size_t bytes() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word storage: the chunk file writes it verbatim.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Word count an array of `count` values at `bit_width` occupies — the
  /// on-disk length contract shared by WordsFor round-trips.
  static size_t WordsFor(size_t count, unsigned bit_width) {
    return (count * bit_width + 63) / 64 + 1;
  }

  /// Reassembles an array from its serialized pieces (the on-disk chunk
  /// format stores count, width, and the packed words verbatim). The word
  /// vector must have exactly the length the constructor would allocate.
  static BitPackedArray FromWords(size_t count, unsigned bit_width,
                                  std::vector<uint64_t> words) {
    CASPER_CHECK(bit_width <= 64);
    CASPER_CHECK_MSG(words.size() == WordsFor(count, bit_width),
                     "packed word count does not match geometry");
    BitPackedArray a;
    a.count_ = count;
    a.width_ = bit_width;
    a.words_ = std::move(words);
    return a;
  }

 private:
  size_t count_ = 0;
  unsigned width_ = 0;
  std::vector<uint64_t> words_;
};

/// Bits needed to represent `max_value` (0 -> 0 bits).
inline unsigned BitsFor(uint64_t max_value) {
  unsigned bits = 0;
  while (max_value > 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

}  // namespace casper

#endif  // CASPER_COMPRESSION_BITPACK_H_
