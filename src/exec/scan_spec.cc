#include "exec/scan_spec.h"

#include <limits>

#include "compression/packed_column.h"
#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

ScanSpec SpecForOperation(const Operation& op,
                          const std::vector<size_t>& sum_cols) {
  // Tables with no payload columns make min/max/avg reference an
  // out-of-range column, which evaluates to the zero partial.
  const size_t agg_col =
      sum_cols.empty() ? std::numeric_limits<size_t>::max() : sum_cols.front();
  switch (op.kind) {
    case OpKind::kRangeCount:
      return ScanSpec::Count(op.a, op.b);
    case OpKind::kRangeSum:
      return ScanSpec::Sum(op.a, op.b, sum_cols);
    case OpKind::kRangeMin:
      return ScanSpec::Min(op.a, op.b, agg_col);
    case OpKind::kRangeMax:
      return ScanSpec::Max(op.a, op.b, agg_col);
    case OpKind::kRangeAvg:
      return ScanSpec::Avg(op.a, op.b, agg_col);
    default:
      break;
  }
  CASPER_CHECK_MSG(false, "SpecForOperation takes range-read kinds only");
  return ScanSpec{};
}

namespace exec {

namespace {

/// Aggregates the surviving slots of one block in ascending order.
void AggregateSlots(const ScanSpec& spec, const SpecRows& r,
                    const uint32_t* slots, size_t k, ScanPartial* out) {
  switch (spec.agg.kind) {
    case AggKind::kCount:
      out->count += k;
      break;
    case AggKind::kSum:
      for (const size_t c : spec.agg.cols) {
        const Payload* col = (*r.cols)[c].data();
        uint64_t s = 0;
        for (size_t j = 0; j < k; ++j) s += col[slots[j]];
        out->sum += s;
      }
      break;
    case AggKind::kSumProduct: {
      const Payload* a = (*r.cols)[spec.agg.cols[0]].data();
      const Payload* b = (*r.cols)[spec.agg.cols[1]].data();
      uint64_t s = 0;
      for (size_t j = 0; j < k; ++j) {
        const uint32_t slot = slots[j];
        // Same arithmetic as the legacy Q6 loops: the product is formed in
        // int64, accumulated with wrapping 64-bit adds.
        s += static_cast<uint64_t>(static_cast<int64_t>(a[slot]) *
                                   static_cast<int64_t>(b[slot]));
      }
      out->sum += s;
      break;
    }
    case AggKind::kMin: {
      const Payload* col = (*r.cols)[spec.agg.cols[0]].data();
      for (size_t j = 0; j < k; ++j) out->min = std::min(out->min, col[slots[j]]);
      out->count += k;
      break;
    }
    case AggKind::kMax: {
      const Payload* col = (*r.cols)[spec.agg.cols[0]].data();
      for (size_t j = 0; j < k; ++j) out->max = std::max(out->max, col[slots[j]]);
      out->count += k;
      break;
    }
    case AggKind::kAvg: {
      const Payload* col = (*r.cols)[spec.agg.cols[0]].data();
      uint64_t s = 0;
      for (size_t j = 0; j < k; ++j) s += col[slots[j]];
      out->sum += s;
      out->count += k;
      break;
    }
  }
}

/// True when summing packed rows [begin, begin + n) beats the flat AVX2
/// kernel. The prefix blocks answer the interior in O(1), so the packed cost
/// is only the partial blocks at the two edges — but edge rows unpack several
/// times slower than the flat sum consumes them, so short runs (anything that
/// doesn't span a full block, e.g. single partitions) must stay on the raw
/// array.
bool PackedSumPaysOff(size_t begin, size_t n) {
  constexpr size_t kB = PackedPayloadColumn::kSumBlock;
  const size_t end = begin + n;
  const size_t first_full = (begin + kB - 1) / kB * kB;
  const size_t last_full = end / kB * kB;
  if (first_full >= last_full) return false;  // no whole block in the window
  const size_t edge_rows = (first_full - begin) + (end - last_full);
  return n > 4 * edge_rows;  // interior must dwarf the slower edge unpacking
}

/// Minimum run length before payload predicates evaluate in the packed
/// domain. On cache-resident runs the flat gather filter beats unpack+filter
/// outright (~2x measured), so short runs — partition-sized scans after the
/// key filter — stay on the raw arrays. A run past this floor streams more
/// flat payload bytes than any LLC holds, and there the packed words read
/// width/32 of the memory traffic and win on bandwidth. The predicate
/// rewrite itself (whole-run veto) stays on for every run length: it costs a
/// couple of comparisons and can skip the scan entirely.
constexpr size_t kPackedFilterMinRun = size_t{1} << 21;

}  // namespace

ScanPartial EvalSpecRows(const ScanSpec& spec, const SpecRows& r) {
  ScanPartial out;
  if (r.n == 0) return out;
  const bool check = r.key_check && !spec.full_domain;
  if (r.key_check && spec.EmptyKeyRange()) return out;

  // The effective predicate list: spec.predicates, unless the caller proved
  // some of them redundant for this run (zone-map blind consume) and passed
  // the remainder through the override span.
  const PredicateSpec* preds =
      r.preds_override ? r.preds : spec.predicates.data();
  const size_t npreds = r.preds_override ? r.npreds : spec.predicates.size();

  const auto packed_col = [&r](size_t c) -> const PackedPayloadColumn* {
    return (r.packed != nullptr && c < r.packed->size()) ? (*r.packed)[c].get()
                                                         : nullptr;
  };

  // Vectorized fast paths: the predicate-free count/sum shapes dominate real
  // workloads (Q2/Q3 and full scans), and they need no slot materialization.
  if (npreds == 0) {
    if (spec.agg.kind == AggKind::kCount) {
      if (check) {
        out.count = kernels::CountInRange(r.keys, r.n, spec.lo, spec.hi);
      } else if (r.tombstones != nullptr) {
        out.count = r.n - kernels::SumBytes(r.tombstones + r.base, r.n);
      } else {
        out.count = r.n;
      }
      return out;
    }
    if (spec.agg.kind == AggKind::kSum &&
        (r.tombstones == nullptr ||
         kernels::SumBytes(r.tombstones + r.base, r.n) == 0)) {
      const bool packed_pays = PackedSumPaysOff(r.packed_base, r.n);
      for (const size_t c : spec.agg.cols) {
        // Scan-on-compressed: when the whole run qualifies and the column is
        // encoded, sum straight off the packed words (prefix blocks answer
        // the interior) — no decode, no materialization, bit-identical
        // because all sums wrap in u64.
        const PackedPayloadColumn* pc =
            (check || !packed_pays) ? nullptr : packed_col(c);
        if (pc != nullptr) {
          out.sum += pc->SumRows(r.packed_base, r.packed_base + r.n);
          continue;
        }
        const Payload* col = (*r.cols)[c].data() + r.base;
        out.sum += static_cast<uint64_t>(
            check ? kernels::SumPayloadInRange(r.keys, col, r.n, spec.lo, spec.hi)
                  : kernels::SumPayload(col, r.n));
      }
      return out;
    }
  }

  // Rewrite each predicate on an encoded column into the packed domain once
  // per run (offset space for FoR, code space for dictionary). A rewrite
  // that proves no encoded value can qualify vetoes the whole run.
  struct PackedPred {
    const PackedPayloadColumn* pc;
    uint64_t plo;
    uint64_t phi;
  };
  constexpr size_t kMaxPackedPreds = 16;
  PackedPred pp[kMaxPackedPreds];
  const bool use_packed = r.packed != nullptr && npreds <= kMaxPackedPreds;
  if (use_packed) {
    for (size_t i = 0; i < npreds; ++i) {
      pp[i] = {packed_col(preds[i].col), 0, 0};
      if (pp[i].pc != nullptr &&
          !pp[i].pc->RewritePredicate(preds[i].lo, preds[i].hi, &pp[i].plo,
                                      &pp[i].phi)) {
        return out;  // no value in the encoded column qualifies
      }
    }
  }

  // General path: block-wise late materialization. The key filter (or an
  // identity slot list when the run pre-qualifies) feeds the tombstone
  // filter, then each payload predicate refines via the gather kernel, and
  // the aggregate consumes the survivors — all ascending, so addition order
  // matches the legacy per-row loops exactly.
  const bool packed_filter = use_packed && r.n >= kPackedFilterMinRun;
  constexpr size_t kBlock = 256;
  uint32_t buf_a[kBlock];
  uint32_t buf_b[kBlock];
  const int64_t packed_bias =
      static_cast<int64_t>(r.packed_base) - static_cast<int64_t>(r.base);
  for (size_t off = 0; off < r.n; off += kBlock) {
    const size_t m = std::min(kBlock, r.n - off);
    uint32_t* slots = buf_a;
    uint32_t* spare = buf_b;
    size_t k;
    size_t pred_start = 0;
    if (!check && r.tombstones == nullptr && packed_filter && npreds > 0 &&
        pp[0].pc != nullptr) {
      // Every row of the block is a candidate, so the first packed predicate
      // emits qualifying slots straight from the packed words — the identity
      // fill and the first gather filter collapse into one packed pass.
      k = kernels::FilterPackedPayloadInRange(
          pp[0].pc->words(), r.packed_base + off, r.packed_base + off + m,
          pp[0].pc->bit_width(), pp[0].plo, pp[0].phi,
          r.base + static_cast<uint32_t>(off), slots);
      pred_start = 1;
    } else if (check) {
      k = kernels::FilterSlots(r.keys + off, m, spec.lo, spec.hi,
                               r.base + static_cast<uint32_t>(off), slots);
    } else {
      for (size_t i = 0; i < m; ++i) {
        slots[i] = r.base + static_cast<uint32_t>(off + i);
      }
      k = m;
    }
    if (r.tombstones != nullptr && k > 0) {
      size_t kept = 0;
      for (size_t i = 0; i < k; ++i) {
        spare[kept] = slots[i];
        kept += static_cast<size_t>(r.tombstones[slots[i]] == 0);
      }
      std::swap(slots, spare);
      k = kept;
    }
    for (size_t pi = pred_start; pi < npreds; ++pi) {
      if (k == 0) break;
      const PackedPayloadColumn* pc = packed_filter ? pp[pi].pc : nullptr;
      if (pc != nullptr) {
        k = kernels::RefinePackedPayloadInRange(pc->words(), pc->bit_width(),
                                                slots, k, packed_bias,
                                                pp[pi].plo, pp[pi].phi, spare);
      } else {
        const PredicateSpec& p = preds[pi];
        k = kernels::FilterPayloadInRange((*r.cols)[p.col].data(), slots, k,
                                          p.lo, p.hi, spare);
      }
      std::swap(slots, spare);
    }
    if (k > 0) AggregateSlots(spec, r, slots, k, &out);
  }
  return out;
}

}  // namespace exec
}  // namespace casper
