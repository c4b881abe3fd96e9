// Reference model for checking the engine's answers: the live rows kept in
// key order in small sorted buckets, with every read evaluated by a plain
// loop over the rows in range (a bucket wholly in range of a scan without
// predicates by its per-column totals, recomputed after it changes). It shares no code with the engine's storage, layouts or scan paths;
// only the query value types (ScanSpec, Operation) are common, because they
// are the inputs both sides evaluate.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/types.h"

namespace perfbench {

using casper::Payload;
using casper::Value;

constexpr size_t kPayloadCols = 3;

struct RefRow {
  Value key = 0;
  std::array<Payload, kPayloadCols> p{};
};

/// Answer of one range aggregate: the row count and ScanPartial::Result.
struct RefAnswer {
  uint64_t count = 0;
  uint64_t result = 0;
};

/// Keys are unique: the benchmark's generator never inserts a present key,
/// so every read has exactly one correct answer whatever physical order the
/// engine keeps.
class Reference {
 public:
  /// `rows` sorted by key, keys distinct.
  void Load(const std::vector<RefRow>& rows) {
    buckets_.clear();
    firsts_.clear();
    size_ = rows.size();
    for (size_t i = 0; i < rows.size(); i += kBucket) {
      const size_t end = std::min(rows.size(), i + kBucket);
      buckets_.emplace_back(rows.begin() + static_cast<ptrdiff_t>(i),
                            rows.begin() + static_cast<ptrdiff_t>(end));
      firsts_.push_back(rows[i].key);
    }
    if (buckets_.empty()) {
      buckets_.emplace_back();
      firsts_.push_back(std::numeric_limits<Value>::min());
    }
    totals_.assign(buckets_.size(), BucketTotals{});
  }

  size_t size() const { return size_; }

  const RefRow* Find(Value key) const {
    const std::vector<RefRow>& b = buckets_[Route(key)];
    const auto it = LowerBound(b, key);
    return it != b.end() && it->key == key ? &*it : nullptr;
  }

  /// Smallest absent key >= key.
  Value NextFree(Value key) const {
    while (Find(key) != nullptr) ++key;
    return key;
  }

  /// Smallest present key >= key, wrapping to the smallest key overall.
  /// The table must not be empty.
  Value NextPresent(Value key) const {
    for (size_t b = Route(key); b < buckets_.size(); ++b) {
      const auto it = LowerBound(buckets_[b], key);
      if (it != buckets_[b].end()) return it->key;
    }
    for (const std::vector<RefRow>& b : buckets_) {
      if (!b.empty()) return b.front().key;
    }
    return key;
  }

  /// `row.key` must be absent.
  void Insert(const RefRow& row) {
    const size_t bi = Route(row.key);
    std::vector<RefRow>& b = buckets_[bi];
    b.insert(LowerBound(b, row.key), row);
    firsts_[bi] = std::min(firsts_[bi], row.key);
    totals_[bi].valid = false;
    ++size_;
    if (b.size() >= 2 * kBucket) {
      std::vector<RefRow> upper(b.begin() + static_cast<ptrdiff_t>(kBucket), b.end());
      b.resize(kBucket);
      const Value first = upper.front().key;
      buckets_.insert(buckets_.begin() + static_cast<ptrdiff_t>(bi) + 1,
                      std::move(upper));
      firsts_.insert(firsts_.begin() + static_cast<ptrdiff_t>(bi) + 1, first);
      totals_.insert(totals_.begin() + static_cast<ptrdiff_t>(bi) + 1, BucketTotals{});
    }
  }

  /// Removes `key`'s row into *out; false when absent.
  bool Erase(Value key, RefRow* out) {
    const size_t bi = Route(key);
    std::vector<RefRow>& b = buckets_[bi];
    const auto it = LowerBound(b, key);
    if (it == b.end() || it->key != key) return false;
    *out = *it;
    b.erase(it);
    totals_[bi].valid = false;
    --size_;
    if (b.empty() && buckets_.size() > 1) {
      buckets_.erase(buckets_.begin() + static_cast<ptrdiff_t>(bi));
      firsts_.erase(firsts_.begin() + static_cast<ptrdiff_t>(bi));
      totals_.erase(totals_.begin() + static_cast<ptrdiff_t>(bi));
    }
    return true;
  }

  /// UPDATE key = new_key WHERE key = old_key; the payload moves along.
  bool Update(Value old_key, Value new_key) {
    RefRow row;
    if (!Erase(old_key, &row)) return false;
    row.key = new_key;
    Insert(row);
    return true;
  }

  RefAnswer Scan(const casper::ScanSpec& spec) const {
    RefAnswer out;
    if (!spec.RefsValid(kPayloadCols) || spec.EmptyKeyRange()) return out;
    const casper::AggKind kind = spec.agg.kind;
    const std::vector<size_t>& cols = spec.agg.cols;
    uint64_t sum = 0;
    Payload mn = std::numeric_limits<Payload>::max();
    Payload mx = 0;
    const size_t first = spec.full_domain ? 0 : Route(spec.lo);
    for (size_t bi = first; bi < buckets_.size(); ++bi) {
      const std::vector<RefRow>& b = buckets_[bi];
      auto begin = b.begin();
      auto end = b.end();
      if (!spec.full_domain) {
        if (!b.empty() && b.front().key >= spec.hi) break;
        begin = LowerBound(b, spec.lo);
        end = LowerBound(b, spec.hi);
      }
      if (kind == casper::AggKind::kCount && spec.predicates.empty()) {
        out.count += static_cast<uint64_t>(end - begin);
        continue;
      }
      if (begin == b.begin() && end == b.end() && !b.empty() && spec.predicates.empty() &&
          kind != casper::AggKind::kSumProduct) {
        // The whole bucket is in range: use its totals.
        const BucketTotals& t = Totals(bi);
        out.count += b.size();
        switch (kind) {
          case casper::AggKind::kSum:
            for (const size_t c : cols) sum += t.sum[c];
            break;
          case casper::AggKind::kMin:
            mn = std::min(mn, t.min[cols[0]]);
            break;
          case casper::AggKind::kMax:
            mx = std::max(mx, t.max[cols[0]]);
            break;
          case casper::AggKind::kAvg:
            sum += t.sum[cols[0]];
            break;
          default:
            break;
        }
        continue;
      }
      for (auto it = begin; it != end; ++it) {
        const RefRow& r = *it;
        bool keep = true;
        for (const casper::PredicateSpec& p : spec.predicates) {
          keep = keep && r.p[p.col] >= p.lo && r.p[p.col] <= p.hi;
        }
        if (!keep) continue;
        ++out.count;
        switch (kind) {
          case casper::AggKind::kCount:
            break;
          case casper::AggKind::kSum:
            for (const size_t c : cols) sum += r.p[c];
            break;
          case casper::AggKind::kSumProduct:
            sum += static_cast<uint64_t>(r.p[cols[0]]) * r.p[cols[1]];
            break;
          case casper::AggKind::kMin:
            mn = std::min(mn, r.p[cols[0]]);
            break;
          case casper::AggKind::kMax:
            mx = std::max(mx, r.p[cols[0]]);
            break;
          case casper::AggKind::kAvg:
            sum += r.p[cols[0]];
            break;
        }
      }
    }
    switch (kind) {
      case casper::AggKind::kCount:
        out.result = out.count;
        break;
      case casper::AggKind::kSum:
      case casper::AggKind::kSumProduct:
        out.result = sum;
        break;
      case casper::AggKind::kMin:
        out.result = out.count > 0 ? mn : 0;
        break;
      case casper::AggKind::kMax:
        out.result = out.count > 0 ? mx : 0;
        break;
      case casper::AggKind::kAvg:
        out.result = out.count > 0 ? sum / out.count : 0;
        break;
    }
    return out;
  }

 private:
  static constexpr size_t kBucket = 256;

  /// Per-column sum, min and max of one bucket's rows, computed on first use
  /// after the bucket last changed.
  struct BucketTotals {
    bool valid = false;
    std::array<uint64_t, kPayloadCols> sum{};
    std::array<Payload, kPayloadCols> min{};
    std::array<Payload, kPayloadCols> max{};
  };

  const BucketTotals& Totals(size_t bi) const {
    BucketTotals& t = totals_[bi];
    if (!t.valid) {
      t = BucketTotals{};
      t.valid = true;
      t.min.fill(std::numeric_limits<Payload>::max());
      for (const RefRow& r : buckets_[bi]) {
        for (size_t c = 0; c < kPayloadCols; ++c) {
          t.sum[c] += r.p[c];
          t.min[c] = std::min(t.min[c], r.p[c]);
          t.max[c] = std::max(t.max[c], r.p[c]);
        }
      }
    }
    return t;
  }

  static std::vector<RefRow>::const_iterator LowerBound(const std::vector<RefRow>& b,
                                                         Value key) {
    return std::lower_bound(b.begin(), b.end(), key,
                            [](const RefRow& r, Value k) { return r.key < k; });
  }
  static std::vector<RefRow>::iterator LowerBound(std::vector<RefRow>& b, Value key) {
    return std::lower_bound(b.begin(), b.end(), key,
                            [](const RefRow& r, Value k) { return r.key < k; });
  }

  /// Bucket whose key range holds `key`: the last one starting at or below
  /// it (bucket 0 for keys below every bucket).
  size_t Route(Value key) const {
    const auto it = std::upper_bound(firsts_.begin(), firsts_.end(), key);
    return it == firsts_.begin() ? 0 : static_cast<size_t>(it - firsts_.begin()) - 1;
  }

  std::vector<std::vector<RefRow>> buckets_;
  std::vector<Value> firsts_;  ///< smallest key of each bucket
  mutable std::vector<BucketTotals> totals_;  ///< one per bucket
  size_t size_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
