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
/// primitive behind slot collection and late-materialized payload filters.
size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out);

/// FilterSlots with an equality predicate (point lookups / CollectSlots).
size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
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

/// Count of unsigned 64-bit x[i] with lo <= x[i] < hi — the offset-space
/// predicate of the scan-on-compressed path (frame-of-reference offsets are
/// unsigned deltas from the frame minimum).
uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi);

/// Writes base+i for every d[i] with lo <= d[i] <= hi (CLOSED, unsigned) to
/// out; returns the number written, ascending. The packed-lane selection
/// primitive behind payload-predicate evaluation on encoded columns: d is an
/// unpacked block of FoR offsets or dictionary codes, [lo, hi] the payload
/// predicate rewritten into that packed domain.
size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out);

/// Same contract on contiguous u32 lanes — the packed payload filter's inner
/// kernel (payload widths are <= 32 bits, and 8-lane compares double the
/// throughput of the 64-bit variant).
size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out);

/// Sum of lut[idx[i]] (wrapping u64) — the dictionary-domain aggregate: idx
/// is an unpacked block of codes, lut the (small) decoded dictionary. Caller
/// guarantees every idx[i] < lut size.
uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n);

// --- Scan-on-compressed kernels ---------------------------------------------
// Evaluate predicates directly on fixed-width bit-packed words (the storage
// of FrameOfReferenceColumn / BitPackedArray) without materializing the
// column: blocks of up to 64 values are unpacked into a register-resident
// buffer and fed to the vector predicate above.

/// Count of packed elements in [elem_begin, elem_end) whose unpacked value o
/// satisfies olo <= o < ohi. `words` is the packed array's word storage,
/// `width` its bit width (0 => every element is 0).
uint64_t CountPackedInRange(const uint64_t* words, size_t elem_begin,
                            size_t elem_end, unsigned width, uint64_t olo,
                            uint64_t ohi);

/// Sum of packed elements in [elem_begin, elem_end) (offset-space; add
/// reference * count for the frame total).
uint64_t SumPacked(const uint64_t* words, size_t elem_begin, size_t elem_end,
                   unsigned width);

// --- Packed payload kernels --------------------------------------------------
// The payload-column side of scan-on-compressed: predicates and sums run on
// the packed words of an encoded payload column (FoR offsets or dictionary
// codes) with the predicate rewritten into packed space once per chunk. All
// sums are wrapping u64 in payload space, so results are bit-identical to
// the flat-array kernels on the decoded values.

/// Payload-space sum of a frame-of-reference run: base * count + the packed
/// offset sum over [elem_begin, elem_end).
uint64_t SumPackedPayload(const uint64_t* words, size_t elem_begin,
                          size_t elem_end, unsigned width, uint64_t base);

/// Payload-space sum of a dictionary run: sum of lut[code] over the packed
/// codes in [elem_begin, elem_end). lut must cover every possible code
/// (dictionary size entries; width 0 means a single-entry dictionary).
uint64_t SumPackedLookup(const uint64_t* words, size_t elem_begin,
                         size_t elem_end, unsigned width, const uint64_t* lut);

/// Writes slot_base + (e - elem_begin) for every packed element e in
/// [elem_begin, elem_end) whose value sits in the CLOSED packed-domain range
/// [plo, phi]; returns the number written, ascending. The late-materialized
/// payload filter over an encoded column: survivors' payloads are gathered
/// from the raw array afterwards, but the predicate itself never touches it.
size_t FilterPackedPayloadInRange(const uint64_t* words, size_t elem_begin,
                                  size_t elem_end, unsigned width, uint64_t plo,
                                  uint64_t phi, uint32_t slot_base,
                                  uint32_t* out);

/// Refines an existing slot list by a CLOSED packed-domain predicate: keeps
/// slots[i] when the packed element at slots[i] + slot_bias is in [plo, phi]
/// (slot_bias maps absolute slots to packed row positions). Order-preserving;
/// out may alias slots. Used when the key filter or tombstone pass already
/// thinned the block, so packed access is random rather than sequential.
size_t RefinePackedPayloadInRange(const uint64_t* words, unsigned width,
                                  const uint32_t* slots, size_t n,
                                  int64_t slot_bias, uint64_t plo, uint64_t phi,
                                  uint32_t* out);

// --- Scalar reference implementations ---------------------------------------
// Exposed so the equivalence suite and the micro-bench kernel axis can pin
// SIMD == scalar == compressed on identical inputs.

namespace scalar {
uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi);
uint64_t CountEqual(const Value* d, size_t n, Value v);
int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi);
int64_t SumPayload(const Payload* payload, size_t n);
size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out);
size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
                        uint32_t* out);
size_t FindFirstEqual(const Value* d, size_t n, Value v);
size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out);
uint64_t SumBytes(const uint8_t* d, size_t n);
uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi);
size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out);
size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out);
uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n);
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
size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
                        uint32_t* out);
size_t FindFirstEqual(const Value* d, size_t n, Value v);
size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out);
uint64_t SumBytes(const uint8_t* d, size_t n);
uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi);
size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out);
size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out);
uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n);
}  // namespace avx2
#endif  // CASPER_AVX2

/// Visits qualifying slots of d[0..n) in blocks through the FilterSlots
/// kernel: fn(uint32_t slot) for every i with lo <= d[i] < hi, slots offset
/// by `base`, ascending. Used by the template read paths (ForEachSlotInRange
/// and friends) so callback-style scans still run on the vector kernels.
template <typename Fn>
void ForEachQualifyingSlot(const Value* d, size_t n, Value lo, Value hi,
                           uint32_t base, Fn&& fn) {
  constexpr size_t kBlock = 256;
  uint32_t slots[kBlock];
  for (size_t off = 0; off < n; off += kBlock) {
    const size_t m = n - off < kBlock ? n - off : kBlock;
    const size_t k =
        FilterSlots(d + off, m, lo, hi, base + static_cast<uint32_t>(off), slots);
    for (size_t j = 0; j < k; ++j) fn(slots[j]);
  }
}

}  // namespace casper::kernels

#endif  // CASPER_EXEC_SCAN_KERNELS_H_
