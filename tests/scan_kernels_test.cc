// Randomized kernel-equivalence suite for the vectorized scan layer
// (exec/scan_kernels.h): the dispatched kernels (AVX2 where the CPU has it),
// the portable scalar references, and the scan-on-compressed packed kernels
// must agree bit for bit on identical inputs — swept over buffer sizes
// 0..4097 (every SIMD width boundary and tail remainder), unaligned base
// offsets, duplicate-heavy data, and both key-domain edges. CI runs this
// binary under ASan+UBSan and TSan as well as Release.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "compression/bitpack.h"
#include "compression/frame_of_reference.h"
#include "exec/scan_kernels.h"
#include "storage/types.h"
#include "util/rng.h"

namespace casper {
namespace {

// One shared pseudo-random corpus, regenerated per size so every length
// exercises fresh values, bounds, and alignment. Values are drawn from a
// narrow window around zero (high duplicate/selectivity variety) with the
// domain edges spliced in.
struct Corpus {
  std::vector<Value> keys;      // size + 8 slots: base offset 0..7 applied
  std::vector<Payload> pay;
  std::vector<uint8_t> bytes;
  size_t offset = 0;            // unaligned base offset
  Value lo = 0, hi = 0;         // predicate bounds (lo <= hi)
  Value probe = 0;              // equality probe

  const Value* k() const { return keys.data() + offset; }
  const Payload* p() const { return pay.data() + offset; }
  const uint8_t* b() const { return bytes.data() + offset; }
};

Corpus MakeCorpus(size_t n, Rng& rng) {
  Corpus c;
  c.offset = rng.Below(8);
  const size_t total = n + 8;
  c.keys.resize(total);
  c.pay.resize(total);
  c.bytes.resize(total);
  for (size_t i = 0; i < total; ++i) {
    const uint64_t pick = rng.Below(100);
    if (pick < 2) {
      c.keys[i] = kMinValue;  // domain edges appear in the data
    } else if (pick < 4) {
      c.keys[i] = kMaxValue;
    } else {
      c.keys[i] = static_cast<Value>(rng.Below(997)) - 498;
    }
    c.pay[i] = static_cast<Payload>(rng.Below(1u << 20));
    c.bytes[i] = static_cast<uint8_t>(rng.Below(256));
  }
  // Bounds: usually inside the narrow window, sometimes at the edges.
  const uint64_t bpick = rng.Below(10);
  if (bpick == 0) {
    c.lo = kMinValue;
    c.hi = static_cast<Value>(rng.Below(997)) - 498;
  } else if (bpick == 1) {
    c.lo = static_cast<Value>(rng.Below(997)) - 498;
    c.hi = kMaxValue;
  } else {
    Value a = static_cast<Value>(rng.Below(1200)) - 600;
    Value b = static_cast<Value>(rng.Below(1200)) - 600;
    c.lo = a < b ? a : b;
    c.hi = a < b ? b : a;
  }
  c.probe = static_cast<Value>(rng.Below(997)) - 498;
  return c;
}

// The sweep: every size in [0, 4097]. Each check compares the dispatched
// kernel against the scalar reference (and, when AVX2 is compiled in and the
// CPU has it, the avx2 namespace explicitly — dispatch must not mask it).
TEST(ScanKernels, DispatchedMatchesScalarAcrossSizesAndOffsets) {
  Rng rng(20260727);
  for (size_t n = 0; n <= 4097; ++n) {
    const Corpus c = MakeCorpus(n, rng);
    const uint64_t count_ref = kernels::scalar::CountInRange(c.k(), n, c.lo, c.hi);
    ASSERT_EQ(kernels::CountInRange(c.k(), n, c.lo, c.hi), count_ref) << n;
    ASSERT_EQ(kernels::CountEqual(c.k(), n, c.probe),
              kernels::scalar::CountEqual(c.k(), n, c.probe))
        << n;
    ASSERT_EQ(kernels::SumPayloadInRange(c.k(), c.p(), n, c.lo, c.hi),
              kernels::scalar::SumPayloadInRange(c.k(), c.p(), n, c.lo, c.hi))
        << n;
    ASSERT_EQ(kernels::SumPayload(c.p(), n), kernels::scalar::SumPayload(c.p(), n))
        << n;
    ASSERT_EQ(kernels::SumBytes(c.b(), n), kernels::scalar::SumBytes(c.b(), n))
        << n;

    std::vector<uint32_t> got(n), want(n);
    const size_t kg = kernels::FilterSlots(c.k(), n, c.lo, c.hi, 17, got.data());
    const size_t kw =
        kernels::scalar::FilterSlots(c.k(), n, c.lo, c.hi, 17, want.data());
    ASSERT_EQ(kg, kw) << n;
    got.resize(kg);
    want.resize(kw);
    ASSERT_EQ(got, want) << n;

    got.assign(n, 0);
    want.assign(n, 0);
    const size_t eg =
        kernels::FilterSlotsEqual(c.k(), n, c.probe, 3, got.data());
    const size_t ew =
        kernels::scalar::FilterSlotsEqual(c.k(), n, c.probe, 3, want.data());
    ASSERT_EQ(eg, ew) << n;
    got.resize(eg);
    want.resize(ew);
    ASSERT_EQ(got, want) << n;

    ASSERT_EQ(kernels::FindFirstEqual(c.k(), n, c.probe),
              kernels::scalar::FindFirstEqual(c.k(), n, c.probe))
        << n;
    if (n > 0) {
      // Probe a value guaranteed present (and the edges, if spliced in).
      const Value present = c.k()[n / 2];
      ASSERT_EQ(kernels::FindFirstEqual(c.k(), n, present),
                kernels::scalar::FindFirstEqual(c.k(), n, present))
          << n;
    }

    // Unsigned-offset kernel (the compressed path's predicate).
    std::vector<uint64_t> u(n);
    for (size_t i = 0; i < n; ++i) u[i] = static_cast<uint64_t>(c.k()[i]);
    const uint64_t ulo = rng.Below(2000);
    const uint64_t uhi = ulo + rng.Below(2000);
    ASSERT_EQ(kernels::CountU64InRange(u.data(), n, ulo, uhi),
              kernels::scalar::CountU64InRange(u.data(), n, ulo, uhi))
        << n;
  }
}

// The ScanSpec payload-predicate kernel: dispatched gather refine == scalar
// reference on random slot subsets (ascending, duplicate-free), with closed
// unsigned bounds including 0 / UINT32_MAX edges and empty (lo > hi)
// predicates — and in-place (out == slots) refinement is exact.
TEST(ScanKernels, FilterPayloadInRangeMatchesScalarAcrossSizes) {
  Rng rng(424242);
  for (size_t n = 0; n <= 4097; n = n < 64 ? n + 1 : n + 29) {
    // A payload column larger than the slot list; slots index into it.
    const size_t col_size = 2 * n + 16;
    std::vector<Payload> col(col_size);
    for (auto& v : col) {
      const uint64_t pick = rng.Below(50);
      if (pick == 0) {
        v = 0;
      } else if (pick == 1) {
        v = std::numeric_limits<Payload>::max();
      } else {
        v = static_cast<Payload>(rng.Below(10000));
      }
    }
    // Ascending slot subset (every other slot, jittered start).
    std::vector<uint32_t> slots;
    for (size_t s = rng.Below(2); s < col_size && slots.size() < n; s += 2) {
      slots.push_back(static_cast<uint32_t>(s));
    }
    Payload lo, hi;
    const uint64_t bpick = rng.Below(10);
    if (bpick == 0) {
      lo = 0;
      hi = static_cast<Payload>(rng.Below(10000));
    } else if (bpick == 1) {
      lo = static_cast<Payload>(rng.Below(10000));
      hi = std::numeric_limits<Payload>::max();
    } else if (bpick == 2) {
      lo = 5000;  // empty predicate: lo > hi
      hi = 4999;
    } else {
      const Payload a = static_cast<Payload>(rng.Below(12000));
      const Payload b = static_cast<Payload>(rng.Below(12000));
      lo = std::min(a, b);
      hi = std::max(a, b);
    }

    std::vector<uint32_t> got(slots.size()), want(slots.size());
    const size_t kg = kernels::FilterPayloadInRange(
        col.data(), slots.data(), slots.size(), lo, hi, got.data());
    const size_t kw = kernels::scalar::FilterPayloadInRange(
        col.data(), slots.data(), slots.size(), lo, hi, want.data());
    ASSERT_EQ(kg, kw) << n;
    got.resize(kg);
    want.resize(kw);
    ASSERT_EQ(got, want) << n;

    // In-place refine: out aliases slots.
    std::vector<uint32_t> inplace = slots;
    const size_t ki = kernels::FilterPayloadInRange(
        col.data(), inplace.data(), inplace.size(), lo, hi, inplace.data());
    ASSERT_EQ(ki, kw) << n;
    inplace.resize(ki);
    ASSERT_EQ(inplace, want) << n;

#if defined(CASPER_AVX2)
    if (kernels::HaveAvx2()) {
      std::vector<uint32_t> simd(slots.size());
      const size_t ks = kernels::avx2::FilterPayloadInRange(
          col.data(), slots.data(), slots.size(), lo, hi, simd.data());
      ASSERT_EQ(ks, kw) << n;
      simd.resize(ks);
      ASSERT_EQ(simd, want) << n;
    }
#endif
  }
}

#if defined(CASPER_AVX2)
TEST(ScanKernels, Avx2NamespaceMatchesScalarWhenAvailable) {
  if (!kernels::HaveAvx2()) {
    GTEST_SKIP() << "CPU lacks AVX2; dispatch already covers the scalar path";
  }
  Rng rng(77);
  for (size_t n = 0; n <= 1025; ++n) {
    const Corpus c = MakeCorpus(n, rng);
    ASSERT_EQ(kernels::avx2::CountInRange(c.k(), n, c.lo, c.hi),
              kernels::scalar::CountInRange(c.k(), n, c.lo, c.hi))
        << n;
    ASSERT_EQ(kernels::avx2::SumPayloadInRange(c.k(), c.p(), n, c.lo, c.hi),
              kernels::scalar::SumPayloadInRange(c.k(), c.p(), n, c.lo, c.hi))
        << n;
    ASSERT_EQ(kernels::avx2::SumBytes(c.b(), n),
              kernels::scalar::SumBytes(c.b(), n))
        << n;
    std::vector<uint32_t> got(n), want(n);
    const size_t kg =
        kernels::avx2::FilterSlots(c.k(), n, c.lo, c.hi, 0, got.data());
    const size_t kw =
        kernels::scalar::FilterSlots(c.k(), n, c.lo, c.hi, 0, want.data());
    ASSERT_EQ(kg, kw) << n;
    got.resize(kg);
    want.resize(kw);
    ASSERT_EQ(got, want) << n;
  }
}
#endif  // CASPER_AVX2

// Scan-on-compressed: a frame-of-reference encoding of the same buffer must
// produce the same counts as the raw kernels, for every size and random
// frame widths (tail frames exercise partial unpack blocks).
TEST(ScanKernels, CompressedMatchesRawAcrossSizes) {
  Rng rng(4242);
  for (size_t n = 1; n <= 4097; n += (n < 128 ? 1 : 29)) {
    const Corpus c = MakeCorpus(n, rng);
    std::vector<Value> raw(c.k(), c.k() + n);
    const size_t frame_width = 1 + rng.Below(300);
    const FrameOfReferenceColumn col(raw, frame_width);
    ASSERT_EQ(col.size(), n);

    ASSERT_EQ(col.CountRange(c.lo, c.hi),
              kernels::scalar::CountInRange(raw.data(), n, c.lo, c.hi))
        << n << " fw=" << frame_width;

    // Decode-free aggregate and random access agree with the raw column.
    // Reference sum accumulated in uint64_t: wraparound stays defined at
    // the key-domain edges.
    const uint64_t raw_sum =
        std::accumulate(raw.begin(), raw.end(), uint64_t{0},
                        [](uint64_t s, Value v) { return s + static_cast<uint64_t>(v); });
    ASSERT_EQ(col.SumAll(), static_cast<int64_t>(raw_sum)) << n;
    const size_t probe_at = rng.Below(n);
    ASSERT_EQ(col.Get(probe_at), raw[probe_at]) << n;
  }
}

// Packed payload kernels vs brute-force unpack: the dispatched entry points
// (SumPackedPayload / SumPackedLookup / FilterPackedPayloadInRange /
// RefinePackedPayloadInRange) must agree with a value-at-a-time reference on
// the same packed words — swept over sizes 0..4097, bit widths 0..32, and
// unaligned element offsets (window starts that don't sit on a word edge).
TEST(ScanKernels, PackedPayloadKernelsMatchBruteForce) {
  Rng rng(20260808);
  for (size_t n = 0; n <= 4097; n = n < 96 ? n + 1 : n + 57) {
    const unsigned width = static_cast<unsigned>(rng.Below(33));
    const size_t off = rng.Below(8);  // unaligned window start
    const size_t total = n + off;
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    BitPackedArray arr(total, width);
    std::vector<uint64_t> vals(total);
    for (size_t i = 0; i < total; ++i) {
      vals[i] = rng.Next() & mask;
      arr.Set(i, vals[i]);
    }

    // FoR sum: base * count + packed offsets, wrapping u64.
    const uint64_t base = rng.Below(uint64_t{1} << 20);
    uint64_t want_sum = 0;
    for (size_t i = off; i < total; ++i) want_sum += base + vals[i];
    ASSERT_EQ(kernels::SumPackedPayload(arr.words(), off, total, width, base),
              want_sum)
        << n << " w=" << width << " off=" << off;

    // Dictionary sum: lut gather over the codes (keep the lut addressable).
    if (width <= 12) {
      std::vector<uint64_t> lut(mask + 1);
      for (auto& v : lut) v = rng.Below(uint64_t{1} << 32);
      uint64_t want_lut = 0;
      for (size_t i = off; i < total; ++i) want_lut += lut[vals[i]];
      ASSERT_EQ(
          kernels::SumPackedLookup(arr.words(), off, total, width, lut.data()),
          want_lut)
          << n << " w=" << width << " off=" << off;
    }

    // Closed packed-domain filter, including the empty lo > hi shape.
    uint64_t plo = rng.Next() & mask;
    uint64_t phi = rng.Next() & mask;
    if (plo > phi) std::swap(plo, phi);
    if (mask > 0 && rng.Below(8) == 0) {
      plo = 2;
      phi = 1;
    }
    const uint32_t slot_base = 13;
    std::vector<uint32_t> want_slots;
    for (size_t i = off; i < total; ++i) {
      if (plo <= vals[i] && vals[i] <= phi) {
        want_slots.push_back(slot_base + static_cast<uint32_t>(i - off));
      }
    }
    std::vector<uint32_t> got(n);
    const size_t k = kernels::FilterPackedPayloadInRange(
        arr.words(), off, total, width, plo, phi, slot_base, got.data());
    got.resize(k);
    ASSERT_EQ(got, want_slots) << n << " w=" << width << " off=" << off;

    // Refine an already-thinned ascending slot list (random subset), with a
    // bias mapping absolute slots back to packed positions; in place.
    std::vector<uint32_t> slots;
    for (size_t i = off; i < total; ++i) {
      if (rng.Below(3) == 0) {
        slots.push_back(slot_base + static_cast<uint32_t>(i - off));
      }
    }
    const int64_t slot_bias =
        static_cast<int64_t>(off) - static_cast<int64_t>(slot_base);
    std::vector<uint32_t> want_refined;
    for (const uint32_t s : slots) {
      const uint64_t v = vals[static_cast<size_t>(s + slot_bias)];
      if (plo <= v && v <= phi) want_refined.push_back(s);
    }
    std::vector<uint32_t> refined = slots;
    const size_t rk = kernels::RefinePackedPayloadInRange(
        arr.words(), width, refined.data(), refined.size(), slot_bias, plo, phi,
        refined.data());
    refined.resize(rk);
    ASSERT_EQ(refined, want_refined) << n << " w=" << width << " off=" << off;
  }
}

// The key-side scan-on-compressed kernels (CountPackedInRange / SumPacked)
// vs brute-force unpack: swept over sizes, bit widths 0..32, unaligned
// element windows, and the half-open offset-space predicate — including the
// empty olo >= ohi shape.
TEST(ScanKernels, PackedKeyKernelsMatchBruteForce) {
  Rng rng(20260809);
  for (size_t n = 0; n <= 4097; n = n < 96 ? n + 1 : n + 57) {
    const unsigned width = static_cast<unsigned>(rng.Below(33));
    const size_t off = rng.Below(8);  // unaligned window start
    const size_t total = n + off;
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    BitPackedArray arr(total, width);
    std::vector<uint64_t> vals(total);
    for (size_t i = 0; i < total; ++i) {
      vals[i] = rng.Next() & mask;
      arr.Set(i, vals[i]);
    }

    uint64_t olo = rng.Next() & mask;
    uint64_t ohi = rng.Next() & mask;
    if (olo > ohi) std::swap(olo, ohi);
    if (mask > 0 && rng.Below(8) == 0) std::swap(olo, ohi);  // maybe empty

    uint64_t want_count = 0;
    uint64_t want_sum = 0;
    for (size_t i = off; i < total; ++i) {
      want_count += (olo <= vals[i] && vals[i] < ohi);
      want_sum += vals[i];
    }
    ASSERT_EQ(kernels::CountPackedInRange(arr.words(), off, total, width, olo, ohi),
              want_count)
        << n << " w=" << width << " off=" << off;
    ASSERT_EQ(kernels::SumPacked(arr.words(), off, total, width), want_sum)
        << n << " w=" << width << " off=" << off;
  }
}

// The unpacked-block inner kernels behind the packed payload layer:
// dispatched == scalar == avx2 (when the CPU has it) on identical inputs,
// sizes 0..4097 with unaligned base offsets.
TEST(ScanKernels, PackedInnerKernelsDispatchMatchesScalar) {
  Rng rng(808);
  for (size_t n = 0; n <= 4097; n = n < 96 ? n + 1 : n + 31) {
    const size_t off = rng.Below(8);
    std::vector<uint64_t> d(n + off);
    for (auto& v : d) v = rng.Below(5000);
    uint64_t lo = rng.Below(5000);
    uint64_t hi = rng.Below(5000);
    if (lo > hi) std::swap(lo, hi);
    if (rng.Below(8) == 0) {
      lo = 7;  // empty closed range
      hi = 6;
    }
    std::vector<uint32_t> got(n), want(n);
    const size_t kg = kernels::FilterSlotsU64InClosedRange(d.data() + off, n, lo,
                                                           hi, 5, got.data());
    const size_t kw = kernels::scalar::FilterSlotsU64InClosedRange(
        d.data() + off, n, lo, hi, 5, want.data());
    ASSERT_EQ(kg, kw) << n;
    got.resize(kg);
    want.resize(kw);
    ASSERT_EQ(got, want) << n;

    // The narrow (u32-lane) variant the packed payload filter actually runs:
    // same sweep, 32-bit data and bounds, including the domain edges.
    std::vector<uint32_t> d32(n + off);
    for (auto& v : d32) v = static_cast<uint32_t>(rng.Below(5000));
    if (n > 0 && rng.Below(4) == 0) {
      d32[off + rng.Below(n)] = 0;
      d32[off + rng.Below(n)] = UINT32_MAX;
    }
    uint32_t lo32 = static_cast<uint32_t>(rng.Below(5000));
    uint32_t hi32 = static_cast<uint32_t>(rng.Below(5000));
    if (lo32 > hi32) std::swap(lo32, hi32);
    switch (rng.Below(8)) {
      case 0:
        lo32 = 7;  // empty closed range
        hi32 = 6;
        break;
      case 1:
        hi32 = UINT32_MAX;  // no upper cut
        break;
      default:
        break;
    }
    std::vector<uint32_t> got32(n), want32(n);
    const size_t kg32 = kernels::FilterSlotsU32InClosedRange(
        d32.data() + off, n, lo32, hi32, 5, got32.data());
    const size_t kw32 = kernels::scalar::FilterSlotsU32InClosedRange(
        d32.data() + off, n, lo32, hi32, 5, want32.data());
    ASSERT_EQ(kg32, kw32) << n;
    got32.resize(kg32);
    want32.resize(kw32);
    ASSERT_EQ(got32, want32) << n;

    std::vector<uint64_t> lut(257);
    for (auto& v : lut) v = rng.Below(uint64_t{1} << 40);
    std::vector<uint64_t> idx(n + off);
    for (auto& v : idx) v = rng.Below(lut.size());
    ASSERT_EQ(kernels::SumIndexedU64(lut.data(), idx.data() + off, n),
              kernels::scalar::SumIndexedU64(lut.data(), idx.data() + off, n))
        << n;

#if defined(CASPER_AVX2)
    if (kernels::HaveAvx2()) {
      std::vector<uint32_t> simd(n);
      const size_t ks = kernels::avx2::FilterSlotsU64InClosedRange(
          d.data() + off, n, lo, hi, 5, simd.data());
      ASSERT_EQ(ks, kw) << n;
      simd.resize(ks);
      ASSERT_EQ(simd, want) << n;
      std::vector<uint32_t> simd32(n);
      const size_t ks32 = kernels::avx2::FilterSlotsU32InClosedRange(
          d32.data() + off, n, lo32, hi32, 5, simd32.data());
      ASSERT_EQ(ks32, kw32) << n;
      simd32.resize(ks32);
      ASSERT_EQ(simd32, want32) << n;
      ASSERT_EQ(kernels::avx2::SumIndexedU64(lut.data(), idx.data() + off, n),
                kernels::scalar::SumIndexedU64(lut.data(), idx.data() + off, n))
          << n;
    }
#endif
  }
}

// Full-domain predicates at the integer edges: [kMinValue, kMaxValue)
// excludes exactly the kMaxValue rows; CountEqual picks them up without any
// +1 overflow.
TEST(ScanKernels, DomainEdgeSemantics) {
  const std::vector<Value> d = {kMinValue, kMinValue, -1, 0, 1, kMaxValue,
                                kMaxValue, kMaxValue};
  EXPECT_EQ(kernels::CountInRange(d.data(), d.size(), kMinValue, kMaxValue), 5u);
  EXPECT_EQ(kernels::CountEqual(d.data(), d.size(), kMaxValue), 3u);
  EXPECT_EQ(kernels::CountEqual(d.data(), d.size(), kMinValue), 2u);
  EXPECT_EQ(
      kernels::CountInRange(d.data(), d.size(), kMinValue + 1, kMaxValue), 3u);
}

}  // namespace
}  // namespace casper
