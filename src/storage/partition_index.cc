#include "storage/partition_index.h"

#include <algorithm>

#include "util/status.h"

namespace casper {

PartitionIndex::PartitionIndex(std::vector<Value> uppers, size_t fanout)
    : uppers_(std::move(uppers)), fanout_(std::max<size_t>(2, fanout)) {
  CASPER_CHECK(!uppers_.empty());
  CASPER_CHECK(std::is_sorted(uppers_.begin(), uppers_.end()));
  BuildTree();
}

void PartitionIndex::BuildTree() {
  // Build levels bottom-up: each inner node stores the max key of its
  // subtree, so descending compares against at most `fanout` separators.
  tree_.clear();
  level_offsets_.clear();
  level_sizes_.clear();
  std::vector<std::vector<Value>> levels;
  levels.push_back(uppers_);
  while (levels.back().size() > fanout_) {
    const auto& below = levels.back();
    std::vector<Value> level;
    level.reserve((below.size() + fanout_ - 1) / fanout_);
    for (size_t i = 0; i < below.size(); i += fanout_) {
      level.push_back(below[std::min(i + fanout_ - 1, below.size() - 1)]);
    }
    levels.push_back(std::move(level));
  }
  // Store root-first.
  for (size_t l = levels.size(); l-- > 0;) {
    level_offsets_.push_back(tree_.size());
    level_sizes_.push_back(levels[l].size());
    tree_.insert(tree_.end(), levels[l].begin(), levels[l].end());
  }
}

size_t PartitionIndex::Route(Value v) const {
  size_t node = 0;  // index within the current level
  for (size_t l = 0; l + 1 < level_offsets_.size(); ++l) {
    const Value* level = tree_.data() + level_offsets_[l];
    const size_t size = level_sizes_[l];
    const size_t begin = node * fanout_;
    const size_t end = std::min(begin + fanout_, size);
    size_t child = end - 1;
    for (size_t i = begin; i < end; ++i) {
      if (level[i] >= v) {
        child = i;
        break;
      }
    }
    node = child;
  }
  // Final level holds the partition uppers themselves.
  const Value* leaves = tree_.data() + level_offsets_.back();
  const size_t size = level_sizes_.back();
  const size_t begin = node * fanout_;
  const size_t end = std::min(begin + fanout_, size);
  for (size_t i = begin; i < end; ++i) {
    if (leaves[i] >= v) return i;
  }
  return size - 1;
}

size_t PartitionIndex::RouteBinarySearch(Value v) const {
  const auto it = std::lower_bound(uppers_.begin(), uppers_.end(), v);
  if (it == uppers_.end()) return uppers_.size() - 1;
  return static_cast<size_t>(std::distance(uppers_.begin(), it));
}

}  // namespace casper
