#ifndef CASPER_MODEL_ACCESS_COST_H_
#define CASPER_MODEL_ACCESS_COST_H_

#include <cstddef>

namespace casper {

/// The four access-pattern constants of the paper's I/O-style cost model
/// (§4.4): random read (RR), random write (RW), sequential read (SR), and
/// sequential write (SW), each expressed as the cost of touching one memory
/// block. Units are nanoseconds per block; only ratios matter for the
/// optimizer's argmin, absolute values matter for SLA bounds (Eq. 21).
struct AccessCostConstants {
  double rr = 100.0;         ///< random block read (paper: ~100ns)
  double rw = 100.0;         ///< random block write
  double sr = 100.0 / 14.0;  ///< sequential read; paper measures 14x cheaper
  double sw = 100.0 / 14.0;  ///< sequential write

  /// Shared per-operation cost of probing the partition index (paper §4.5
  /// measures ~8.5us cumulative). Not part of the optimization objective
  /// because it is identical for every layout; kept for latency prediction.
  double index_probe = 0.0;
};

/// Engine-matched calibration: measures the two primitives Casper's own
/// operations are built from, in the units the cost model expects:
///
///   SR  = scanning one `block_values`-value block with the engine's tight
///         for-loop (the per-block cost of partition scans),
///   RR/RW = half the cost of one ripple step (a random element read plus a
///         random element write across a partition boundary).
///
/// Results are cached per (block_values, working_set); the first call pays
/// the measurement (~tens of ms). This is the knob that makes the optimizer
/// pick the same layouts on cache-resident test data and on DRAM-resident
/// bench data.
AccessCostConstants CalibrateEngineCosts(size_t block_values,
                                         size_t working_set = (1u << 22));

}  // namespace casper

#endif  // CASPER_MODEL_ACCESS_COST_H_
