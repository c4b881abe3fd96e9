#include "exec/scan_spec.h"

#include <limits>

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

  // Vectorized fast paths: the predicate-free count/sum shapes dominate real
  // workloads (Q2/Q3 and full scans), and they need no slot materialization.
  if (npreds == 0) {
    if (spec.agg.kind == AggKind::kCount) {
      out.count = check ? kernels::CountInRange(r.keys, r.n, spec.lo, spec.hi) : r.n;
      return out;
    }
    if (spec.agg.kind == AggKind::kSum) {
      for (const size_t c : spec.agg.cols) {
        const Payload* col = (*r.cols)[c].data() + r.base;
        out.sum += static_cast<uint64_t>(
            check ? kernels::SumPayloadInRange(r.keys, col, r.n, spec.lo, spec.hi)
                  : kernels::SumPayload(col, r.n));
      }
      return out;
    }
  }

  // General path: block-wise late materialization. The key filter (or an
  // identity slot list when the run pre-qualifies) feeds each payload
  // predicate, which refines via the gather kernel, and the aggregate
  // consumes the survivors — all ascending, so addition order
  // matches the legacy per-row loops exactly.
  constexpr size_t kBlock = 256;
  uint32_t buf_a[kBlock];
  uint32_t buf_b[kBlock];
  for (size_t off = 0; off < r.n; off += kBlock) {
    const size_t m = std::min(kBlock, r.n - off);
    uint32_t* slots = buf_a;
    uint32_t* spare = buf_b;
    size_t k;
    if (check) {
      k = kernels::FilterSlots(r.keys + off, m, spec.lo, spec.hi,
                               r.base + static_cast<uint32_t>(off), slots);
    } else {
      for (size_t i = 0; i < m; ++i) {
        slots[i] = r.base + static_cast<uint32_t>(off + i);
      }
      k = m;
    }
    for (size_t pi = 0; pi < npreds; ++pi) {
      if (k == 0) break;
      const PredicateSpec& p = preds[pi];
      k = kernels::FilterPayloadInRange((*r.cols)[p.col].data(), slots, k,
                                        p.lo, p.hi, spare);
      std::swap(slots, spare);
    }
    if (k > 0) AggregateSlots(spec, r, slots, k, &out);
  }
  return out;
}

}  // namespace exec
}  // namespace casper
