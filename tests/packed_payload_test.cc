// Fuzz suite for the packed payload column (compression/packed_column.h) and
// the per-column encoding advisor (model/encoding_advisor.h): round trips on
// duplicate-heavy / u32-edge / single-value distributions for both codecs,
// predicate rewriting checked against a brute-force value-space reference,
// and the prefix-sum SumRows fast path checked against plain accumulation on
// random row windows. CI runs this under ASan+UBSan and TSan as well.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compression/packed_column.h"
#include "exec/scan_kernels.h"
#include "exec/scan_spec.h"
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
      // The dictionary lut mirrors the decoded dictionary for the gather sum.
      if (enc == PayloadEncoding::kDictionary) {
        ASSERT_NE(col->lut(), nullptr);
      } else {
        ASSERT_EQ(col->lut(), nullptr);
      }
    }
  }
}

TEST(PackedPayload, RewritePredicateMatchesBruteForce) {
  // Both codecs' rewritten closed [lo, hi] must select exactly the rows a
  // value-space scan selects; a veto only when no row qualifies.
  const auto check = [](const std::vector<Payload>& values, Payload lo,
                        Payload hi, int iter) {
    const size_t n = values.size();
    std::vector<uint32_t> want;
    for (size_t i = 0; i < n; ++i) {
      if (lo <= values[i] && values[i] <= hi) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      ASSERT_NE(col, nullptr);
      uint64_t plo = 0, phi = 0;
      if (!col->RewritePredicate(lo, hi, &plo, &phi)) {
        ASSERT_TRUE(want.empty()) << "iter=" << iter << " enc=" << (int)enc
                                  << " lo=" << lo << " hi=" << hi;
        continue;
      }
      std::vector<uint32_t> got(n);
      const size_t k = kernels::FilterPackedPayloadInRange(
          col->words(), 0, n, col->bit_width(), plo, phi, 0, got.data());
      got.resize(k);
      ASSERT_EQ(got, want) << "iter=" << iter << " enc=" << (int)enc
                           << " lo=" << lo << " hi=" << hi;
    }
  };

  Rng rng(77001);
  for (int iter = 0; iter < 96; ++iter) {
    const size_t n = 1 + rng.Below(2000);
    const auto values = MakeValues(iter, n, rng);
    // Closed bounds: usually near the data, sometimes at the u32 edges,
    // sometimes inverted (must veto).
    Payload lo, hi;
    const uint64_t pick = rng.Below(10);
    if (pick == 0) {
      lo = 0;
      hi = kPayMax;
    } else if (pick == 1) {
      lo = 5;  // inverted: lo > hi
      hi = 4;
    } else {
      const size_t a = rng.Below(n);
      const size_t b = rng.Below(n);
      lo = std::min(values[a], values[b]);
      hi = std::max(values[a], values[b]);
      if (rng.Below(2) == 0 && lo > 0) --lo;   // off-by-one edges around
      if (rng.Below(2) == 0 && hi < kPayMax) ++hi;  // present values
    }
    ASSERT_NO_FATAL_FAILURE(check(values, lo, hi, iter));
  }

  // A fixed column with values missing from its dictionary (0, 2, 4, 6, 8,
  // 10, 11): every bound pair over [0, 11], so bounds land on absent values,
  // between two codes, past both ends and inverted.
  const std::vector<Payload> gaps = {5, 1, 9, 5, 3, 7, 1, 9, 5};
  for (Payload lo = 0; lo <= 11; ++lo) {
    for (Payload hi = 0; hi <= 11; ++hi) {
      ASSERT_NO_FATAL_FAILURE(check(gaps, lo, hi, -1));
    }
  }
}

TEST(PackedPayload, SumRowsMatchesAccumulateOnRandomWindows) {
  Rng rng(424242);
  // Big enough that windows span multiple kSumBlock prefix blocks, so both
  // the O(1) interior path and the packed edges get exercised.
  const size_t n = 3 * PackedPayloadColumn::kSumBlock + 37;
  for (int mode = 0; mode < 4; ++mode) {
    const auto values = MakeValues(mode, n, rng);
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      ASSERT_NE(col, nullptr);
      for (int iter = 0; iter < 48; ++iter) {
        const size_t b = rng.Below(n + 1);
        const size_t e = b + rng.Below(n + 1 - b);
        uint64_t want = 0;
        for (size_t i = b; i < e; ++i) want += values[i];
        ASSERT_EQ(col->SumRows(b, e), want)
            << "mode=" << mode << " enc=" << (int)enc << " [" << b << "," << e
            << ")";
      }
      // Clamped and empty windows.
      uint64_t all = 0;
      for (const Payload v : values) all += v;
      ASSERT_EQ(col->SumRows(0, n + 999), all);
      ASSERT_EQ(col->SumRows(5, 5), 0u);
    }
  }
}

// Predicated evaluation through the generic evaluator on a run long enough
// to cross the packed-filter bandwidth gate (~2M rows): with the encodings
// attached, the first predicate collapses into FilterPackedPayloadInRange and
// later ones refine via RefinePackedPayloadInRange, and the partial must be
// bit-identical to the flat-array evaluation of the same run.
TEST(PackedPayload, SpecEvalOnHugeRunMatchesFlat) {
  Rng rng(606060);
  const size_t n = (size_t{1} << 21) + 1237;
  std::vector<Value> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Value>(i);
  std::vector<std::vector<Payload>> cols(2);
  cols[0] = MakeValues(0, n, rng);  // duplicate-heavy: dictionary
  cols[1] = MakeValues(3, n, rng);  // narrow dense: frame-of-reference
  std::vector<std::shared_ptr<const PackedPayloadColumn>> packed = {
      PackedPayloadColumn::Encode(cols[0], PayloadEncoding::kDictionary),
      PackedPayloadColumn::Encode(cols[1], PayloadEncoding::kFrameOfReference)};
  ASSERT_NE(packed[0], nullptr);
  ASSERT_NE(packed[1], nullptr);

  exec::SpecRows flat;
  flat.keys = keys.data();
  flat.n = n;
  flat.base = 0;
  flat.cols = &cols;
  flat.key_check = false;
  exec::SpecRows enc = flat;
  enc.packed = &packed;
  enc.packed_base = 0;

  ScanSpec spec = ScanSpec::Sum(0, static_cast<Value>(n), {0, 1});
  spec.predicates.push_back({0, 17u, 2000023u});         // hits some dict words
  spec.predicates.push_back({1, 900010u, 900200u});      // inside the FoR span
  const ScanPartial a = exec::EvalSpecRows(spec, flat);
  const ScanPartial b = exec::EvalSpecRows(spec, enc);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_GT(b.sum, 0u);

  // A predicate below every encoded value: the rewrite vetoes the whole run.
  ScanSpec veto = spec;
  veto.predicates[0] = {0, 0u, 5u};
  const ScanPartial av = exec::EvalSpecRows(veto, flat);
  const ScanPartial bv = exec::EvalSpecRows(veto, enc);
  EXPECT_EQ(av.sum, 0u);
  EXPECT_EQ(bv.sum, 0u);
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
