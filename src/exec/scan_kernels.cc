#include "exec/scan_kernels.h"

namespace casper::kernels {

// --- Scalar reference implementations ---------------------------------------
// Written as branch-free accumulation over independent partial counters so
// any optimizing compiler autovectorizes them at the build's baseline ISA
// (SSE2 on stock x86-64). They are also the bit-exact reference for the
// equivalence suite: all sums wrap in 64 bits, which is associative, so any
// lane order produces the same result.

namespace scalar {

uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
    c1 += static_cast<uint64_t>(d[i + 1] >= lo) & static_cast<uint64_t>(d[i + 1] < hi);
    c2 += static_cast<uint64_t>(d[i + 2] >= lo) & static_cast<uint64_t>(d[i + 2] < hi);
    c3 += static_cast<uint64_t>(d[i + 3] >= lo) & static_cast<uint64_t>(d[i + 3] < hi);
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
  }
  return c;
}

uint64_t CountEqual(const Value* d, size_t n, Value v) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<uint64_t>(d[i] == v);
    c1 += static_cast<uint64_t>(d[i + 1] == v);
    c2 += static_cast<uint64_t>(d[i + 2] == v);
    c3 += static_cast<uint64_t>(d[i + 3] == v);
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) c += static_cast<uint64_t>(d[i] == v);
  return c;
}

int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi) {
  uint64_t s0 = 0, s1 = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64_t m0 =
        (keys[i] >= lo) & (keys[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    const uint64_t m1 =
        (keys[i + 1] >= lo) & (keys[i + 1] < hi) ? ~uint64_t{0} : uint64_t{0};
    s0 += static_cast<uint64_t>(payload[i]) & m0;
    s1 += static_cast<uint64_t>(payload[i + 1]) & m1;
  }
  uint64_t s = s0 + s1;
  for (; i < n; ++i) {
    const uint64_t m =
        (keys[i] >= lo) & (keys[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    s += static_cast<uint64_t>(payload[i]) & m;
  }
  return static_cast<int64_t>(s);
}

int64_t SumPayload(const Payload* payload, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += payload[i];
    s1 += payload[i + 1];
    s2 += payload[i + 2];
    s3 += payload[i + 3];
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += payload[i];
  return static_cast<int64_t>(s);
}

size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] < hi);
  }
  return k;
}

size_t FindFirstEqual(const Value* d, size_t n, Value v) {
  // Block the early-exit check so the inner loop stays branch-light: scan 8
  // at a time accumulating a match flag, then pinpoint within the block.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int any = 0;
    for (size_t j = 0; j < 8; ++j) any |= (d[i + j] == v);
    if (any) {
      for (size_t j = 0; j < 8; ++j) {
        if (d[i + j] == v) return i + j;
      }
    }
  }
  for (; i < n; ++i) {
    if (d[i] == v) return i;
  }
  return n;
}

size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out) {
  // Branch-free refine. Reading the slot before writing out[k] keeps the
  // in-place (out == slots) case correct: k never exceeds i.
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = slots[i];
    const Payload v = col[s];
    out[k] = s;
    k += static_cast<size_t>(v >= lo) & static_cast<size_t>(v <= hi);
  }
  return k;
}

uint64_t SumBytes(const uint8_t* d, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += d[i];
    s1 += d[i + 1];
    s2 += d[i + 2];
    s3 += d[i + 3];
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += d[i];
  return s;
}

}  // namespace scalar

// --- Runtime dispatch --------------------------------------------------------
// One CPU probe at process start; every entry point then branches on a
// cached bool. When the AVX2 translation unit is compiled out (CASPER_AVX2
// off, or a non-x86 target), dispatch degrades to the scalar kernels with no
// runtime probe at all — a prebuilt binary can never hit an illegal
// instruction.

namespace {

bool DetectAvx2() {
#if defined(CASPER_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const bool g_have_avx2 = DetectAvx2();

}  // namespace

bool HaveAvx2() { return g_have_avx2; }

#if defined(CASPER_AVX2)
#define CASPER_DISPATCH(fn, ...) \
  (g_have_avx2 ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__))
#else
#define CASPER_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi) {
  return CASPER_DISPATCH(CountInRange, d, n, lo, hi);
}

uint64_t CountEqual(const Value* d, size_t n, Value v) {
  return CASPER_DISPATCH(CountEqual, d, n, v);
}

int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi) {
  return CASPER_DISPATCH(SumPayloadInRange, keys, payload, n, lo, hi);
}

int64_t SumPayload(const Payload* payload, size_t n) {
  return CASPER_DISPATCH(SumPayload, payload, n);
}

size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out) {
  return CASPER_DISPATCH(FilterSlots, d, n, lo, hi, base, out);
}

size_t FindFirstEqual(const Value* d, size_t n, Value v) {
  return CASPER_DISPATCH(FindFirstEqual, d, n, v);
}

size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out) {
  return CASPER_DISPATCH(FilterPayloadInRange, col, slots, n, lo, hi, out);
}

uint64_t SumBytes(const uint8_t* d, size_t n) {
  return CASPER_DISPATCH(SumBytes, d, n);
}

#undef CASPER_DISPATCH

}  // namespace casper::kernels
