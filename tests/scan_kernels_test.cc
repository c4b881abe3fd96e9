// Randomized kernel-equivalence suite for the vectorized scan layer
// (exec/scan_kernels.h): the dispatched kernels (AVX2 where the CPU has it)
// and the portable scalar references must agree bit for bit on identical
// inputs — swept over buffer sizes 0..4097 (every SIMD width boundary and
// tail remainder), unaligned base offsets, duplicate-heavy data, and both
// key-domain edges. CI runs this binary under ASan+UBSan and TSan as well as
// Release.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

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
  }
}

// FindFirstEqual tests 16 values per branch and then locates the hit inside
// the block: the dispatched kernel must return the scalar reference's index
// with the first hit at every position of a 16-value block, at every base
// misalignment, on inputs of 0-33 values (every tail after 0, 1 and 2
// blocks), with a later duplicate of the probe, and with no hit at all.
TEST(ScanKernels, FindFirstEqualLocatesEveryHitPosition) {
  constexpr size_t kMaxLen = 16 * 2 + 33;
  std::vector<Value> buf(kMaxLen + 8);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t n = 0; n <= kMaxLen; ++n) {
      for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<Value>(i) + 1000;
      Value* d = buf.data() + off;
      const Value probe = -7;
      ASSERT_EQ(kernels::FindFirstEqual(d, n, probe), n) << off << " " << n;
      for (size_t hit = 0; hit < n; ++hit) {
        d[hit] = probe;
        if (hit + 1 < n) d[n - 1] = probe;  // a later duplicate
        const size_t want = kernels::scalar::FindFirstEqual(d, n, probe);
        ASSERT_EQ(want, hit);
        ASSERT_EQ(kernels::FindFirstEqual(d, n, probe), want)
            << "off " << off << " n " << n << " hit " << hit;
        d[hit] = static_cast<Value>(off + hit) + 1000;
      }
    }
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
