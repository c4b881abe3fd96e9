#ifndef CASPER_WORKLOAD_OPS_H_
#define CASPER_WORKLOAD_OPS_H_

#include <string_view>
#include <vector>

#include "storage/types.h"

namespace casper {

/// The HAP benchmark's six query classes (paper §7.1) plus the extended
/// range-aggregate classes admitted through the ScanSpec surface. Range
/// queries carry [a, b); updates move key a to key b; the others use only a.
/// The new kinds are appended so the original six keep their indices
/// (latency arrays, mix histograms).
enum class OpKind {
  kPointQuery,  // Q1: SELECT a1..ak WHERE a0 = v
  kRangeCount,  // Q2: SELECT count(*) WHERE a0 in [vs, ve)
  kRangeSum,    // Q3: SELECT sum(a1+..+ak) WHERE a0 in [vs, ve)
  kInsert,      // Q4: INSERT VALUES (...)
  kDelete,      // Q5: DELETE WHERE a0 = v
  kUpdate,      // Q6: UPDATE SET a0 = vnew WHERE a0 = v
  kRangeMin,    // Q7: SELECT min(a1) WHERE a0 in [vs, ve)
  kRangeMax,    // Q8: SELECT max(a1) WHERE a0 in [vs, ve)
  kRangeAvg,    // Q9: SELECT avg(a1) WHERE a0 in [vs, ve)
};

constexpr int kNumOpKinds = 9;

std::string_view OpKindName(OpKind kind);

/// True for the kinds that mutate the table (insert, delete, update); every
/// other kind is a read.
inline bool IsWriteKind(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kDelete ||
         kind == OpKind::kUpdate;
}

struct Operation {
  OpKind kind;
  Value a = 0;
  Value b = 0;
};

/// Fraction of each operation class in a workload; fractions sum to 1. The
/// aggregate classes default to 0, so existing mixes are unchanged (and draw
/// the same op streams from the same seeds).
struct OperationMix {
  double point_query = 0;
  double range_count = 0;
  double range_sum = 0;
  double insert = 0;
  double del = 0;
  double update = 0;
  double range_min = 0;
  double range_max = 0;
  double range_avg = 0;

  double Total() const {
    return point_query + range_count + range_sum + insert + del + update +
           range_min + range_max + range_avg;
  }
};

}  // namespace casper

#endif  // CASPER_WORKLOAD_OPS_H_
