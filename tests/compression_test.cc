#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "compression/bitpack.h"
#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "util/rng.h"

namespace casper {
namespace {

TEST(BitPack, RoundTripAllWidths) {
  Rng rng(1);
  for (unsigned width = 0; width <= 64; width += (width < 8 ? 1 : 7)) {
    const size_t n = 257;  // crosses word boundaries at every width
    BitPackedArray arr(n, width);
    std::vector<uint64_t> expect(n);
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    for (size_t i = 0; i < n; ++i) {
      expect[i] = rng.Next() & mask;
      arr.Set(i, expect[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(arr.Get(i), expect[i]) << "width=" << width << " i=" << i;
    }
  }
}

TEST(BitPack, OverwriteIsClean) {
  BitPackedArray arr(10, 7);
  arr.Set(3, 127);
  arr.Set(3, 1);
  EXPECT_EQ(arr.Get(3), 1u);
  EXPECT_EQ(arr.Get(2), 0u);
  EXPECT_EQ(arr.Get(4), 0u);
}

TEST(BitPack, SequentialPackMatchesSetEveryWidth) {
  // Pack must write exactly the words that per-value Set writes, at every
  // width and at counts that end before, on and after a word boundary.
  Rng rng(11);
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    for (const size_t n : {0, 1, 63, 64, 65, 4097}) {
      std::vector<uint64_t> values(n);
      for (uint64_t& v : values) v = rng.Next() & mask;
      if (n > 0) values[0] = mask;  // all ones: every spill bit set
      BitPackedArray by_set(n, width);
      for (size_t i = 0; i < n; ++i) by_set.Set(i, values[i]);
      const BitPackedArray packed =
          BitPackedArray::Pack(n, width, [&](size_t i) { return values[i]; });
      ASSERT_EQ(packed.size(), n);
      ASSERT_EQ(packed.bit_width(), width);
      ASSERT_EQ(packed.num_words(), by_set.num_words());
      EXPECT_TRUE(std::equal(packed.words(), packed.words() + packed.num_words(),
                             by_set.words()))
          << "width=" << width << " n=" << n;
    }
  }
}

TEST(Dictionary, PackedCodesMatchPerValueReference) {
  // Dictionary codes are packed with Pack; on narrow and wide columns the
  // words must equal a per-value lower_bound + Set reference.
  Rng rng(12);
  std::vector<std::vector<Payload>> columns(3);
  for (int i = 0; i < 26215; ++i) {  // span 10000 over 26k rows
    columns[0].push_back(500000000u + static_cast<Payload>(rng.Below(10000)));
  }
  for (int i = 0; i < 4000; ++i) {  // full u32 range
    columns[1].push_back(static_cast<Payload>(rng.Below(uint64_t{1} << 32)));
  }
  for (int i = 0; i < 3000; ++i) {  // few distinct values, spread wide
    columns[2].push_back(static_cast<Payload>(rng.Below(4)) * 1000003u);
  }
  for (const std::vector<Payload>& v : columns) {
    std::vector<Payload> dict = v;
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    BitPackedArray want(v.size(), BitsFor(dict.size() - 1));
    for (size_t i = 0; i < v.size(); ++i) {
      want.Set(i, static_cast<uint64_t>(
                      std::lower_bound(dict.begin(), dict.end(), v[i]) - dict.begin()));
    }
    const auto col = PackedPayloadColumn::Encode(v, PayloadEncoding::kDictionary);
    ASSERT_NE(col, nullptr);
    EXPECT_EQ(col->dictionary(), dict);
    ASSERT_EQ(col->packed_array().num_words(), want.num_words());
    EXPECT_TRUE(std::equal(col->packed_array().words(),
                           col->packed_array().words() + want.num_words(),
                           want.words()));
  }
}

TEST(FrameOfReference, PackedWordsMatchPerValueReference) {
  // FoR payload columns and FoR key frames pack their offsets with Pack;
  // the words must equal offsets Set one at a time.
  Rng rng(13);
  std::vector<Payload> pay;
  for (int i = 0; i < 5000; ++i) pay.push_back(70000u + static_cast<Payload>(rng.Below(3000)));
  const auto col = PackedPayloadColumn::Encode(pay, PayloadEncoding::kFrameOfReference);
  ASSERT_NE(col, nullptr);
  BitPackedArray want(pay.size(), BitsFor(72999u - 70000u));
  for (size_t i = 0; i < pay.size(); ++i) want.Set(i, pay[i] - col->base());
  ASSERT_EQ(col->base(), *std::min_element(pay.begin(), pay.end()));
  ASSERT_EQ(col->packed_array().num_words(), want.num_words());
  const BitPackedArray& packed = col->packed_array();
  EXPECT_TRUE(std::equal(packed.words(), packed.words() + want.num_words(), want.words()));

  std::vector<Value> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Range(-(Value{1} << 40), Value{1} << 40));
  const std::vector<size_t> frames = {1, 999, 64, 2936, 1000};
  const FrameOfReferenceColumn for_keys(keys, frames);
  size_t begin = 0;
  for (size_t f = 0; f < frames.size(); ++f) {
    const auto first = keys.begin() + static_cast<ptrdiff_t>(begin);
    const auto [mn, mx] = std::minmax_element(first, first + static_cast<ptrdiff_t>(frames[f]));
    const uint64_t ref = static_cast<uint64_t>(*mn);
    BitPackedArray frame(frames[f], BitsFor(static_cast<uint64_t>(*mx) - ref));
    for (size_t i = 0; i < frames[f]; ++i) {
      frame.Set(i, static_cast<uint64_t>(keys[begin + i]) - ref);
    }
    const BitPackedArray& got = for_keys.frame_offsets(f);
    ASSERT_EQ(got.num_words(), frame.num_words()) << f;
    EXPECT_TRUE(std::equal(got.words(), got.words() + got.num_words(), frame.words()))
        << f;
    begin += frames[f];
  }
}

TEST(Dictionary, LowCardinalityCompressesHard) {
  // 11 distinct payload values -> 4-bit codes through the dictionary mode of
  // the packed-column surface the read paths use.
  std::vector<Payload> values;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<Payload>(rng.Range(0, 10)));
  }
  const auto dict =
      PackedPayloadColumn::Encode(values, PayloadEncoding::kDictionary);
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->dictionary_size(), 11u);
  EXPECT_LE(dict->bit_width(), 4u);
  EXPECT_EQ(dict->DecodeAll(), values);
}

TEST(FrameOfReference, RoundTrip) {
  Rng rng(4);
  std::vector<Value> values;
  Value base = 1000000;
  for (int i = 0; i < 10000; ++i) {
    base += rng.Range(0, 20);
    values.push_back(base);
  }
  FrameOfReferenceColumn col(values, size_t{256});
  EXPECT_EQ(col.DecodeAll(), values);
  for (size_t i : {size_t{0}, size_t{255}, size_t{256}, size_t{9999}}) {
    EXPECT_EQ(col.Get(i), values[i]);
  }
}

TEST(FrameOfReference, SortedDataCompressesWell) {
  std::vector<Value> values;
  for (Value v = 0; v < 100000; ++v) values.push_back(v * 3);  // dense sorted
  FrameOfReferenceColumn col(values, size_t{4096});
  // Each 4096-value frame spans ~12288 -> 14 bits vs 64: > 4x.
  EXPECT_GT(col.CompressionRatio(), 4.0);
}

TEST(FrameOfReference, PartitioningCompressionSynergy) {
  // Paper §6.2: finer partitions over queried ranges shrink per-frame value
  // spans, enabling better delta compression. Sorted data cut into more
  // frames must never need more bits per value.
  Rng rng(5);
  std::vector<Value> values;
  for (int i = 0; i < 65536; ++i) values.push_back(rng.Range(0, 1 << 20));
  std::sort(values.begin(), values.end());
  double prev_bits = 1e9;
  for (size_t frames : {1u, 4u, 16u, 64u, 256u}) {
    FrameOfReferenceColumn col(values, values.size() / frames);
    const double bits = col.MeanBitsPerValue();
    EXPECT_LE(bits, prev_bits + 1e-9) << frames;
    prev_bits = bits;
  }
  // And the effect is substantial end-to-end: 256 frames beat 1 frame.
  FrameOfReferenceColumn coarse(values, values.size());
  FrameOfReferenceColumn fine(values, values.size() / 256);
  EXPECT_LT(fine.MeanBitsPerValue(), coarse.MeanBitsPerValue() - 4.0);
}

TEST(FrameOfReference, ExplicitFrameSizesMatchPartitions) {
  std::vector<Value> values = {1, 2, 3, 100, 101, 5000};
  FrameOfReferenceColumn col(values, std::vector<size_t>{3, 2, 1});
  EXPECT_EQ(col.num_frames(), 3u);
  EXPECT_EQ(col.frame_bit_width(0), 2u);  // span 2
  EXPECT_EQ(col.frame_bit_width(1), 1u);  // span 1
  EXPECT_EQ(col.frame_bit_width(2), 0u);  // single value
  EXPECT_EQ(col.DecodeAll(), values);
}

}  // namespace
}  // namespace casper
