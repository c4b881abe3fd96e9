#ifndef CASPER_STORAGE_PARTITION_INDEX_H_
#define CASPER_STORAGE_PARTITION_INDEX_H_

#include <cstddef>
#include <vector>

#include "storage/types.h"

namespace casper {

/// Fan-out of every partition index the engine builds.
inline constexpr size_t kPartitionIndexFanout = 9;

/// The shallow k-ary partition index of paper §3/§6.3 ("Locating
/// Partitions"): a static search tree over partition routing bounds. The
/// upper bound of partition t is the largest key routed to t; Route(v)
/// returns the first partition whose upper bound is >= v (clamped to the
/// last partition for out-of-domain keys).
///
/// For small partition counts the bounds fit in cache and a flat scan /
/// binary search behaves like a Zonemap sweep, so both paths are provided;
/// the k-ary layout wins once the fan-out exceeds a few cache lines.
class PartitionIndex {
 public:
  PartitionIndex() = default;

  /// `uppers` must be non-decreasing; entry t routes values <= uppers[t].
  explicit PartitionIndex(std::vector<Value> uppers,
                          size_t fanout = kPartitionIndexFanout);

  size_t num_partitions() const { return uppers_.size(); }

  /// First partition with upper bound >= v; last partition if none.
  size_t Route(Value v) const;

  /// Flat binary-search routing (reference implementation; used by tests to
  /// validate the k-ary traversal and by benches to compare).
  size_t RouteBinarySearch(Value v) const;

  const std::vector<Value>& uppers() const { return uppers_; }

 private:
  void BuildTree();

  std::vector<Value> uppers_;
  size_t fanout_ = kPartitionIndexFanout;
  // Implicit k-ary tree: level_offsets_[l] is where level l starts in
  // tree_; level 0 is the root. Leaves are the uppers themselves.
  std::vector<Value> tree_;
  std::vector<size_t> level_offsets_;
  std::vector<size_t> level_sizes_;
};

}  // namespace casper

#endif  // CASPER_STORAGE_PARTITION_INDEX_H_
