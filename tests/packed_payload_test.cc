// Fuzz suite for the packed payload column (compression/packed_column.h) and
// the per-column encoding advisor (model/encoding_advisor.h): round trips on
// duplicate-heavy / u32-edge / single-value distributions for both codecs,
// and the advisor's column profile and encoding pick. CI runs this under
// ASan+UBSan and TSan as well.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compression/packed_column.h"
#include "model/encoding_advisor.h"
#include "util/rng.h"

namespace casper {
namespace {

constexpr Payload kPayMax = std::numeric_limits<Payload>::max();

// The three ISSUE distributions plus a mixed one; `mode` cycles through them.
std::vector<Payload> MakeValues(int mode, size_t n, Rng& rng) {
  std::vector<Payload> v;
  v.reserve(n);
  switch (mode % 4) {
    case 0:  // duplicate-heavy: a handful of spread-out distinct values
      for (size_t i = 0; i < n; ++i) {
        v.push_back(static_cast<Payload>(rng.Below(7)) * 1000003u + 17u);
      }
      break;
    case 1:  // u32 edges spliced into a random column
      for (size_t i = 0; i < n; ++i) {
        const uint64_t pick = rng.Below(10);
        if (pick == 0) {
          v.push_back(0);
        } else if (pick == 1) {
          v.push_back(kPayMax);
        } else if (pick == 2) {
          v.push_back(kPayMax - 1);
        } else {
          v.push_back(static_cast<Payload>(rng.Below(uint64_t{1} << 32)));
        }
      }
      break;
    case 2: {  // single value (bit width 0 in both codecs)
      const Payload only = static_cast<Payload>(rng.Below(uint64_t{1} << 32));
      v.assign(n, only);
      break;
    }
    default:  // narrow dense range (the FoR-friendly shape)
      for (size_t i = 0; i < n; ++i) {
        v.push_back(900000u + static_cast<Payload>(rng.Below(250)));
      }
      break;
  }
  return v;
}

TEST(PackedPayload, RoundTripFuzzBothCodecs) {
  Rng rng(20260808);
  for (int iter = 0; iter < 64; ++iter) {
    const size_t n = rng.Below(3000);
    const auto values = MakeValues(iter, n, rng);
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      if (n == 0) {
        ASSERT_EQ(col, nullptr) << iter;
        continue;
      }
      ASSERT_NE(col, nullptr) << iter;
      ASSERT_EQ(col->size(), n);
      ASSERT_EQ(col->encoding(), enc);
      ASSERT_EQ(col->DecodeAll(), values) << "iter=" << iter;
      for (int probe = 0; probe < 16; ++probe) {
        const size_t i = rng.Below(n);
        ASSERT_EQ(col->DecodeAt(i), values[i]) << "iter=" << iter << " i=" << i;
      }
    }
  }
}

TEST(EncodingAdvisor, PicksExpectedEncodings) {
  Rng rng(9);
  // Few distinct values spread over a wide range: dictionary wins.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(static_cast<Payload>(rng.Below(7)) * 100000019u);
    }
    EXPECT_EQ(ChooseDiskEncoding(ProfilePayloadValues(v)),
              PayloadEncoding::kDictionary);
  }
  // Dense narrow range with many distinct values: FoR wins.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(500000u + static_cast<Payload>(rng.Below(250)));
    }
    EXPECT_EQ(ChooseDiskEncoding(ProfilePayloadValues(v)),
              PayloadEncoding::kFrameOfReference);
  }
}

// A `rows`-row column whose values span exactly [lo, lo + span - 1]: both
// ends present, the rest uniform in between.
std::vector<Payload> SpanColumn(size_t rows, Payload lo, uint64_t span, Rng& rng) {
  std::vector<Payload> v;
  v.push_back(lo);
  v.push_back(static_cast<Payload>(lo + span - 1));
  while (v.size() < rows) v.push_back(static_cast<Payload>(lo + rng.Below(span)));
  return v;
}

TEST(EncodingAdvisor, ProfileIsExactOnBothPaths) {
  // The profile counts distinct values over a [min, max] bitmap when
  // ProfileUsesBitmap (span <= 32 x rows) and over a sorted copy otherwise.
  // On both sides of that rule it must match a std::set count, and the
  // encoding chosen from it is pinned to the one the sort-only profile made.
  Rng rng(21);
  const size_t n = 1000;
  const uint64_t at = kMaxProfileBitmapBitsPerRow * n;  // the widest bitmap span
  struct Case {
    std::string name;
    std::vector<Payload> values;
    bool bitmap;
    PayloadEncoding disk;  // ChooseDiskEncoding
  };
  std::vector<Case> cases;
  std::vector<Payload> narrow;
  for (int i = 0; i < 26215; ++i) narrow.push_back(static_cast<Payload>(rng.Below(10000)));
  cases.push_back({"narrow", narrow, true, PayloadEncoding::kFrameOfReference});
  std::vector<Payload> wide;
  for (int i = 0; i < 4000; ++i) {
    wide.push_back(static_cast<Payload>(rng.Below(uint64_t{1} << 32)));
  }
  cases.push_back({"wide", wide, false, PayloadEncoding::kFrameOfReference});
  std::vector<Payload> sparse;
  for (int i = 0; i < 3000; ++i) {
    sparse.push_back(static_cast<Payload>(rng.Below(4)) * 1000003u);
  }
  cases.push_back({"wide few distinct", sparse, false, PayloadEncoding::kDictionary});
  cases.push_back({"span at threshold - 1", SpanColumn(n, 7, at - 1, rng), true,
                   PayloadEncoding::kFrameOfReference});
  cases.push_back({"span at threshold", SpanColumn(n, 7, at, rng), true,
                   PayloadEncoding::kFrameOfReference});
  cases.push_back({"span at threshold + 1", SpanColumn(n, 7, at + 1, rng), false,
                   PayloadEncoding::kFrameOfReference});
  cases.push_back({"one repeated value", std::vector<Payload>(5000, 42), true,
                   PayloadEncoding::kFrameOfReference});
  cases.push_back({"u32 edges", {0, kPayMax}, false,
                   PayloadEncoding::kFrameOfReference});
  std::vector<Payload> edges;
  for (int i = 0; i < 1000; ++i) edges.push_back(i % 2 == 0 ? 0 : kPayMax);
  cases.push_back({"u32 edges repeated", edges, false, PayloadEncoding::kDictionary});
  cases.push_back({"empty", {}, false, PayloadEncoding::kFrameOfReference});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<Payload>& v = c.values;
    const PayloadColumnProfile p = ProfilePayloadValues(v);
    EXPECT_EQ(p.rows, v.size());
    EXPECT_EQ(p.distinct, std::set<Payload>(v.begin(), v.end()).size());
    if (!v.empty()) {
      EXPECT_EQ(p.min, *std::min_element(v.begin(), v.end()));
      EXPECT_EQ(p.max, *std::max_element(v.begin(), v.end()));
      EXPECT_EQ(ProfileUsesBitmap(p.min, p.max, p.rows), c.bitmap);
    }
    EXPECT_EQ(ChooseDiskEncoding(p), c.disk);
  }
}

}  // namespace
}  // namespace casper
