// AVX2 implementations of the scan kernels. This translation unit is the
// ONLY one compiled with -mavx2 (see CMakeLists: CASPER_AVX2); nothing here
// executes unless the runtime CPU probe in scan_kernels.cc succeeded, so the
// rest of the binary stays runnable on any baseline x86-64 (and non-x86
// targets simply compile this file out).
//
// All kernels mirror the scalar reference bit for bit: predicates are
// evaluated as full-width lane masks, sums accumulate in 64-bit
// two's-complement (wraparound is associative, so lane order is
// unobservable), and tails fall back to the same branch-free scalar code.
#if defined(CASPER_AVX2)

#include <immintrin.h>

#include "exec/scan_kernels.h"

namespace casper::kernels::avx2 {

namespace {

/// Horizontal sum of the four 64-bit lanes.
inline uint64_t HSum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/// All-ones lanes where lo <= v < hi (signed 64-bit).
inline __m256i RangeMask(__m256i v, __m256i vlo, __m256i vhi) {
  const __m256i below_lo = _mm256_cmpgt_epi64(vlo, v);  // lo > v
  const __m256i below_hi = _mm256_cmpgt_epi64(vhi, v);  // hi > v
  return _mm256_andnot_si256(below_lo, below_hi);       // v >= lo && v < hi
}

}  // namespace

uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    // Qualifying lanes are -1; subtracting adds 1 per qualifying lane.
    acc = _mm256_sub_epi64(acc, RangeMask(v, vlo, vhi));
  }
  uint64_t c = HSum64(acc);
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
  }
  return c;
}

uint64_t CountEqual(const Value* d, size_t n, Value v) {
  const __m256i vv = _mm256_set1_epi64x(v);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    acc = _mm256_sub_epi64(acc, _mm256_cmpeq_epi64(x, vv));
  }
  uint64_t c = HSum64(acc);
  for (; i < n; ++i) c += static_cast<uint64_t>(d[i] == v);
  return c;
}

int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m128i p32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(payload + i));
    const __m256i p64 = _mm256_cvtepu32_epi64(p32);
    acc = _mm256_add_epi64(acc, _mm256_and_si256(p64, RangeMask(k, vlo, vhi)));
  }
  uint64_t s = HSum64(acc);
  for (; i < n; ++i) {
    const uint64_t m =
        (keys[i] >= lo) & (keys[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    s += static_cast<uint64_t>(payload[i]) & m;
  }
  return static_cast<int64_t>(s);
}

int64_t SumPayload(const Payload* payload, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(payload + i));
    // Widen the eight u32 lanes to four u64 sums: low and high halves.
    acc = _mm256_add_epi64(acc,
                           _mm256_cvtepu32_epi64(_mm256_castsi256_si128(p)));
    acc = _mm256_add_epi64(acc,
                           _mm256_cvtepu32_epi64(_mm256_extracti128_si256(p, 1)));
  }
  uint64_t s = HSum64(acc);
  for (; i < n; ++i) s += payload[i];
  return static_cast<int64_t>(s);
}

size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const int mm = _mm256_movemask_pd(
        _mm256_castsi256_pd(RangeMask(v, vlo, vhi)));
    // Branch-free emit: write each candidate slot, advance by its mask bit.
    const uint32_t s = base + static_cast<uint32_t>(i);
    out[k] = s;
    k += static_cast<size_t>(mm & 1);
    out[k] = s + 1;
    k += static_cast<size_t>((mm >> 1) & 1);
    out[k] = s + 2;
    k += static_cast<size_t>((mm >> 2) & 1);
    out[k] = s + 3;
    k += static_cast<size_t>((mm >> 3) & 1);
  }
  for (; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] < hi);
  }
  return k;
}

size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
                        uint32_t* out) {
  const __m256i vv = _mm256_set1_epi64x(v);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const int mm =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, vv)));
    const uint32_t s = base + static_cast<uint32_t>(i);
    out[k] = s;
    k += static_cast<size_t>(mm & 1);
    out[k] = s + 1;
    k += static_cast<size_t>((mm >> 1) & 1);
    out[k] = s + 2;
    k += static_cast<size_t>((mm >> 2) & 1);
    out[k] = s + 3;
    k += static_cast<size_t>((mm >> 3) & 1);
  }
  for (; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] == v);
  }
  return k;
}

size_t FindFirstEqual(const Value* d, size_t n, Value v) {
  const __m256i vv = _mm256_set1_epi64x(v);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const int mm =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, vv)));
    if (mm != 0) {
      return i + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(mm)));
    }
  }
  for (; i < n; ++i) {
    if (d[i] == v) return i;
  }
  return n;
}

size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out) {
  // 8-lane gather refine: fetch col[slots[i]] for 8 slots at once, evaluate
  // the closed unsigned range via min/max identities (v >= lo iff
  // max_epu32(v, lo) == v; v <= hi iff min_epu32(v, hi) == v), then emit the
  // surviving slots branch-free. In-place (out == slots) is safe: the 8
  // slots are register-resident before any of the <= 8 writes at k <= i.
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots + i));
    const __m256i v = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(col), idx, sizeof(Payload));
    const __m256i ge_lo = _mm256_cmpeq_epi32(_mm256_max_epu32(v, vlo), v);
    const __m256i le_hi = _mm256_cmpeq_epi32(_mm256_min_epu32(v, vhi), v);
    const int mm = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_and_si256(ge_lo, le_hi)));
    alignas(32) uint32_t lane[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane), idx);
    for (size_t j = 0; j < 8; ++j) {
      out[k] = lane[j];
      k += static_cast<size_t>((mm >> j) & 1);
    }
  }
  for (; i < n; ++i) {
    const uint32_t s = slots[i];
    const Payload v = col[s];
    out[k] = s;
    k += static_cast<size_t>(v >= lo) & static_cast<size_t>(v <= hi);
  }
  return k;
}

uint64_t SumBytes(const uint8_t* d, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    // Sum of absolute differences against zero = per-8-byte-group byte sums.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  uint64_t s = HSum64(acc);
  for (; i < n; ++i) s += d[i];
  return s;
}

uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi) {
  // Unsigned compare via sign-bit bias + signed compare.
  const __m256i bias = _mm256_set1_epi64x(static_cast<int64_t>(uint64_t{1} << 63));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(hi)), bias);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i)), bias);
    acc = _mm256_sub_epi64(acc, RangeMask(v, vlo, vhi));
  }
  uint64_t c = HSum64(acc);
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
  }
  return c;
}

size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out) {
  // Closed unsigned range on 64-bit lanes (packed-lane payload predicate):
  // sign-bit bias, then keep lanes with !(v < lo) && !(v > hi).
  const __m256i bias = _mm256_set1_epi64x(static_cast<int64_t>(uint64_t{1} << 63));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(hi)), bias);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i)), bias);
    const __m256i below = _mm256_cmpgt_epi64(vlo, v);  // v < lo
    const __m256i above = _mm256_cmpgt_epi64(v, vhi);  // v > hi
    const int bad = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_or_si256(below, above)));
    const int mm = ~bad & 0xF;
    const uint32_t s = base + static_cast<uint32_t>(i);
    out[k] = s;
    k += static_cast<size_t>(mm & 1);
    out[k] = s + 1;
    k += static_cast<size_t>((mm >> 1) & 1);
    out[k] = s + 2;
    k += static_cast<size_t>((mm >> 2) & 1);
    out[k] = s + 3;
    k += static_cast<size_t>((mm >> 3) & 1);
  }
  for (; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  return k;
}

size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out) {
  // Closed unsigned range on contiguous 32-bit lanes (the packed payload
  // filter's inner kernel after unpacking to u32): same min/max identities as
  // FilterPayloadInRange, minus its gather — 8 lanes per compare instead of
  // the 4 the 64-bit variant manages.
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i ge_lo = _mm256_cmpeq_epi32(_mm256_max_epu32(v, vlo), v);
    const __m256i le_hi = _mm256_cmpeq_epi32(_mm256_min_epu32(v, vhi), v);
    const int mm = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_and_si256(ge_lo, le_hi)));
    const uint32_t s = base + static_cast<uint32_t>(i);
    for (size_t j = 0; j < 8; ++j) {
      out[k] = s + static_cast<uint32_t>(j);
      k += static_cast<size_t>((mm >> j) & 1);
    }
  }
  for (; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  return k;
}

uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n) {
  // Dictionary-domain sum: 4-lane 64-bit gather through the decoded lut.
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    acc = _mm256_add_epi64(
        acc, _mm256_i64gather_epi64(reinterpret_cast<const long long*>(lut),
                                    vi, sizeof(uint64_t)));
  }
  uint64_t s = HSum64(acc);
  for (; i < n; ++i) s += lut[idx[i]];
  return s;
}

}  // namespace casper::kernels::avx2

#endif  // CASPER_AVX2
