#ifndef CASPER_EXEC_SCAN_KERNELS_H_
#define CASPER_EXEC_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "storage/types.h"

namespace casper::kernels {

/// Branch-free vectorized predicate kernels over contiguous column buffers —
/// the shared scan layer every layout read path routes through (paper §4,
/// Fig. 3: partition scans are priced at memory bandwidth; these kernels are
/// what makes that assumption true in the engine).
///
/// Each kernel has two implementations:
///  - a portable scalar one (namespace `scalar`), written as unrolled
///    branch-free accumulation so compilers autovectorize it at any baseline
///    ISA — it is also the reference the equivalence tests pin the SIMD
///    paths against, bit for bit;
///  - an AVX2 one (compiled into its own translation unit with `-mavx2`,
///    gated by the CASPER_AVX2 CMake option), selected at runtime via CPU
///    detection so a prebuilt binary never executes an AVX2 instruction on a
///    CPU that lacks it (no SIGILL on older x86, no effect elsewhere).
///
/// The dispatched entry points below pick the fastest available
/// implementation once at process start. All range predicates are half-open:
/// lo <= v < hi. Results are bit-identical across implementations (sums are
/// accumulated in 64-bit two's-complement, associativity-safe).

/// True when the AVX2 implementations are compiled in AND the running CPU
/// supports them (introspection for tests, benches, and logging).
bool HaveAvx2();

// --- Dispatched kernels ------------------------------------------------------

/// Count of d[i] with lo <= d[i] < hi.
uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi);

/// Count of d[i] == v (point predicate; no hi overflow at the domain edge).
uint64_t CountEqual(const Value* d, size_t n, Value v);

/// Sum of payload[i] where lo <= keys[i] < hi (the Q3 inner loop: predicate
/// on the key column, aggregate on an aligned payload column).
int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi);

/// Unconditional sum of payload[i].
int64_t SumPayload(const Payload* payload, size_t n);

/// Writes base+i for every qualifying d[i] to out (caller provides >= n
/// slots); returns the number written, in ascending order. The selection
/// primitive behind late-materialized payload filters (exec::EvalSpecRows).
size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out);

/// Index of the first d[i] == v, or n if absent — the delete/update
/// find-first probe (vector compare per block, early exit on the first hit).
size_t FindFirstEqual(const Value* d, size_t n, Value v);

/// Refines a slot list by a CLOSED payload predicate: writes slots[i] to out
/// for every i with lo <= col[slots[i]] <= hi (unsigned u32 compare),
/// preserving order; returns the number kept. `out` may alias `slots`. The
/// 8-lane gather kernel behind ScanSpec payload-predicate evaluation — Q6's
/// discount/quantity filters no longer run scalar per surviving slot. The
/// bounds are inclusive on both ends because payload predicates are closed
/// ranges (quantity < q becomes [0, q-1]); lo > hi keeps nothing.
size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out);

/// Sum of n bytes (tombstone-bitmap popcount: delete bitmaps store 0/1).
uint64_t SumBytes(const uint8_t* d, size_t n);

// --- Scalar reference implementations ---------------------------------------
// Exposed so the equivalence suite and the micro-bench kernel axis can pin
// SIMD == scalar on identical inputs.

namespace scalar {
uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi);
uint64_t CountEqual(const Value* d, size_t n, Value v);
int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi);
int64_t SumPayload(const Payload* payload, size_t n);
size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out);
size_t FindFirstEqual(const Value* d, size_t n, Value v);
size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out);
uint64_t SumBytes(const uint8_t* d, size_t n);
}  // namespace scalar

// --- AVX2 implementations (present only when compiled in) -------------------
// Callers must check HaveAvx2() first; the dispatched entry points do.

#if defined(CASPER_AVX2)
namespace avx2 {
uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi);
uint64_t CountEqual(const Value* d, size_t n, Value v);
int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi);
int64_t SumPayload(const Payload* payload, size_t n);
size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out);
size_t FindFirstEqual(const Value* d, size_t n, Value v);
size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out);
uint64_t SumBytes(const uint8_t* d, size_t n);
}  // namespace avx2
#endif  // CASPER_AVX2

}  // namespace casper::kernels

#endif  // CASPER_EXEC_SCAN_KERNELS_H_
