#ifndef CASPER_WORKLOAD_CAPTURE_H_
#define CASPER_WORKLOAD_CAPTURE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "model/frequency_model.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

class ThreadPool;

/// Where capture places a key: its global sorted position in the captured
/// dataset — the count of the dataset's keys below v, over the chunks
/// concatenated in order (std::lower_bound over the sorted keys).
using KeyRankSource = std::function<size_t(Value)>;

/// Builds per-chunk Frequency Models from a sample workload without
/// executing or materializing anything (paper §4.2: "we capture the access
/// patterns as if each operation is executed on the initial dataset").
///
/// Every operation's target values are ranked by a KeyRankSource, mapped to
/// (chunk, block), and recorded in that chunk's histograms. A rank equal to a
/// chunk's end is the next chunk's first row, and a rank past the dataset
/// clamps to its last row. Range queries spanning chunks are split; updates
/// crossing chunks degrade to delete + insert (each chunk is an independent
/// sub-problem, paper §6.3). At build time the ranks come from the sorted
/// dataset; the maintenance cycle ranks only the keys its ops name, from
/// partition geometry (CaptureCycle, maintenance/layout_maintenance.h).
class WorkloadCapture {
 public:
  /// Ranks by binary search over the dataset sorted by key, split into
  /// chunks of `chunk_values` rows.
  WorkloadCapture(const std::vector<Value>& sorted_keys, size_t chunk_values,
                  size_t block_values);

  /// Explicit (e.g. duplicate-safe) chunk row counts.
  WorkloadCapture(const std::vector<Value>& sorted_keys,
                  std::vector<size_t> chunk_row_counts, size_t block_values);

  /// Ranks from `rank` over chunks of `chunk_row_counts` rows (all > 0).
  WorkloadCapture(KeyRankSource rank, std::vector<size_t> chunk_row_counts,
                  size_t block_values);

  /// The keys Route ranks for `op`, appended to `out` (possibly repeated) —
  /// what a KeyRankSource must answer to capture `op`.
  static void AppendRankedKeys(const Operation& op, std::vector<Value>* out);

  void Capture(const Operation& op);
  void CaptureAll(const std::vector<Operation>& ops) {
    for (const auto& op : ops) Capture(op);
  }

  /// Parallel capture: a serial routing pass buckets per-chunk block events,
  /// then each chunk builds its histograms independently over the pool
  /// (chunks are independent sub-problems, paper §6.3). Produces models
  /// identical to the serial CaptureAll — each chunk replays its events in
  /// stream order on a single thread. Null pool falls back to serial.
  void CaptureAll(const std::vector<Operation>& ops, ThreadPool* pool);

  const std::vector<FrequencyModel>& models() const { return models_; }
  std::vector<FrequencyModel>& mutable_models() { return models_; }

  size_t num_chunks() const { return models_.size(); }
  size_t chunk_rows(size_t c) const { return chunk_rows_[c]; }

 private:
  struct Location {
    size_t chunk;
    size_t block;
  };
  /// One routed access: an operation's footprint inside a single chunk.
  struct Event {
    enum Kind : uint8_t { kPoint, kRange, kInsert, kDelete, kUpdate };
    Kind kind;
    uint32_t a = 0;  ///< block (point/insert/delete), first/from block (range/update)
    uint32_t b = 0;  ///< last/to block (range/update)
  };
  /// Routes one operation into per-chunk events: emit(chunk, event).
  /// Capture() applies them immediately; the parallel path buckets them.
  template <typename Emit>
  void Route(const Operation& op, Emit&& emit) const;
  void ApplyEvent(size_t chunk, const Event& e);

  /// Chunk/block a key maps to (clamped into the dataset).
  Location Locate(Value v) const;

  KeyRankSource rank_;
  size_t block_values_;
  size_t total_rows_ = 0;
  std::vector<size_t> chunk_rows_;
  std::vector<size_t> chunk_begin_;  // global row offset of each chunk
  std::vector<FrequencyModel> models_;
};

}  // namespace casper

#endif  // CASPER_WORKLOAD_CAPTURE_H_
