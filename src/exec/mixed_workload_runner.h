#ifndef CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
#define CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/scan_spec.h"
#include "layouts/partitioned.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

class ThreadPool;

/// Monotonic commit-timestamp source. Timestamps are a relaxed counter:
/// each caller needs a distinct value, but ordering with surrounding data
/// comes from the chunk latches, not from the oracle.
class TimestampOracle {
 public:
  uint64_t Next() { return next_.FetchAdd(1); }

 private:
  RelaxedCounter next_{1};
};

/// Outcome of a mixed (read + write) admission run. Aggregates use the same
/// mixing as HarnessResult::checksum, so a mixed run can be checked
/// bit-identical against a single-threaded serial replay of the same stream.
struct MixedResult {
  /// Per-operation results for the read kinds: results[i] is exactly what
  /// the serial harness computes for ops[i] (match count / row count /
  /// static_cast<uint64_t>(sum)). Write kinds leave 0 here; their effects
  /// are in the aggregates below.
  std::vector<uint64_t> results;
  size_t inserts = 0;   ///< rows inserted
  size_t deletes = 0;   ///< rows actually deleted
  size_t updates = 0;   ///< updates that found their key
  /// sum(read results) + deletes + updates — HarnessResult::checksum of the
  /// serial replay of the same stream (key-derived payloads).
  uint64_t checksum = 0;
  /// Highest commit timestamp stamped on a write run (0 without an oracle).
  uint64_t last_commit_ts = 0;
};

/// The engine's one multi-operation scheduler (paper §6.3: column chunks are
/// independent units for execution as much as for layout solving). It admits
/// any operation stream — point and range reads, writes, or both — with a
/// chunk group, not an operation, as the unit of pooled work, and keeps
/// every result deterministic and serial-equivalent.
///
/// How: each operation's chunk footprint (the routed chunk of a point read
/// or write, both chunks of an update, the window of range-overlapping
/// chunks of a range read) comes from the immutable chunk routing bounds. A
/// union-find joins the chunks the stream writes through every operation
/// that touches two of them. Each resulting group is one morsel that runs
/// its operations in stream order, consecutive writes as one grouped
/// ApplyBatch under the per-chunk exclusive latches; a read that touches no
/// written chunk is a morsel of its own. Morsels share no written chunk, so
/// they commute, and a read of an unwritten chunk sees the same state
/// whenever it runs: results are bit-identical to a single-threaded serial
/// replay. The morsels go through exec::MorselFor. A read-only stream is the
/// special case where every read is its own morsel.
///
/// A writer outside the runner that shares the engine only blocks a chunk
/// on its latch; each chunk is still read under one latch hold. When a
/// TimestampOracle is attached, each committed write run is stamped with a
/// commit timestamp (MixedResult::last_commit_ts reports the highest).
class MixedWorkloadRunner {
 public:
  explicit MixedWorkloadRunner(ThreadPool* pool = nullptr,
                               TimestampOracle* oracle = nullptr)
      : pool_(pool), oracle_(oracle) {}

  /// Executes the mixed stream. Admissible kinds: all of them — the point
  /// and range reads (count/sum/min/max/avg as ScanSpecs) and the writes. A
  /// null pool or single worker runs the stream in order on the calling
  /// thread, with identical results.
  MixedResult Run(PartitionedLayout& engine, const std::vector<Operation>& ops,
                  const std::vector<size_t>& sum_cols) const;

  /// Same, summing over DefaultSumColumns(engine) for range sums.
  MixedResult Run(PartitionedLayout& engine,
                  const std::vector<Operation>& ops) const;

  ThreadPool* pool() const { return pool_; }
  TimestampOracle* oracle() const { return oracle_; }

 private:
  ThreadPool* pool_;
  TimestampOracle* oracle_;
};

/// Morsel-driven fan-out of one ScanSpec over the chunk window its key range
/// routes to, [ChunkFor(lo), ChunkFor(hi - 1)] (every chunk for a
/// full-domain spec), on `pool`, merging the per-chunk partials in chunk
/// order — bit-identical to engine.ExecuteScan(spec) for any thread count,
/// because chunks outside the window contribute nothing and ScanPartial
/// merging is associative. A one-chunk window, a null pool or a single
/// worker scans on the calling thread.
ScanPartial ExecuteScanOnPool(const PartitionedLayout& engine, const ScanSpec& spec,
                              ThreadPool* pool);

}  // namespace casper

#endif  // CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
