#ifndef CASPER_WORKLOAD_TPCH_H_
#define CASPER_WORKLOAD_TPCH_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "storage/types.h"

namespace casper {

/// TPC-H-like lineitem substrate for the paper's Fig. 1 experiment (point
/// queries + TPC-H Q6 range queries + inserts). We do not ship the TPC-H
/// generator; this synthetic equivalent reproduces the value distributions
/// Q6 touches:
///
///   key      = l_shipdate as days since 1992-01-01, uniform over 7 years
///   payload0 = l_quantity in [1, 50]
///   payload1 = l_discount in {0.00..0.10} stored as percent (0..10)
///   payload2 = l_extendedprice in [901, 104950] (scaled)
///
/// Q6 (one year of dates, discount +/-0.01 around 0.05, quantity < 24)
/// selects ~1.9% of rows, matching the official selectivity.
namespace tpch {

constexpr Value kDateDomainDays = 7 * 365;   // 1992-01-01 .. 1998-12-01-ish
constexpr Payload kQ6QuantityBound = 24;
constexpr Payload kQ6DiscountLo = 4;         // 0.05 - 0.01, in percent
constexpr Payload kQ6DiscountHi = 6;         // 0.05 + 0.01

struct Lineitem {
  std::vector<Value> shipdate;                // key column
  std::vector<std::vector<Payload>> payload;  // {quantity, discount, price}
};

/// `rows` synthetic lineitem rows. Dates are spread uniformly with
/// sub-day jitter encoded by scaling days by `date_scale` (so the key
/// column has high cardinality, as a real shipdate+rowid sort key would).
Lineitem MakeLineitem(size_t rows, Rng& rng, Value date_scale = 1024);

/// Q6 predicate bounds for a random start date, in scaled-key units.
struct Q6Bounds {
  Value date_lo;
  Value date_hi;
};
Q6Bounds RandomQ6Bounds(Rng& rng, Value date_scale = 1024);

}  // namespace tpch
}  // namespace casper

#endif  // CASPER_WORKLOAD_TPCH_H_
