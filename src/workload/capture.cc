#include "workload/capture.h"

#include <algorithm>
#include <memory>

#include "exec/morsel.h"
#include "util/status.h"

namespace casper {

namespace {

/// Binary search over the sorted dataset (the build-time rank source).
KeyRankSource SortedKeyRanks(const std::vector<Value>& sorted_keys) {
  CASPER_CHECK(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  auto keys = std::make_shared<const std::vector<Value>>(sorted_keys);
  return [keys](Value v) {
    return static_cast<size_t>(
        std::lower_bound(keys->begin(), keys->end(), v) - keys->begin());
  };
}

}  // namespace

WorkloadCapture::WorkloadCapture(const std::vector<Value>& sorted_keys,
                                 size_t chunk_values, size_t block_values)
    : WorkloadCapture(
          sorted_keys,
          [&] {
            CASPER_CHECK(chunk_values > 0);
            std::vector<size_t> counts;
            size_t remaining = sorted_keys.size();
            while (remaining > 0) {
              const size_t take = std::min(remaining, chunk_values);
              counts.push_back(take);
              remaining -= take;
            }
            return counts;
          }(),
          block_values) {}

WorkloadCapture::WorkloadCapture(const std::vector<Value>& sorted_keys,
                                 std::vector<size_t> chunk_row_counts,
                                 size_t block_values)
    : WorkloadCapture(SortedKeyRanks(sorted_keys), std::move(chunk_row_counts),
                      block_values) {
  CASPER_CHECK_MSG(total_rows_ == sorted_keys.size(),
                   "chunk counts must cover the dataset");
}

WorkloadCapture::WorkloadCapture(KeyRankSource rank,
                                 std::vector<size_t> chunk_row_counts,
                                 size_t block_values)
    : rank_(std::move(rank)),
      block_values_(block_values),
      chunk_rows_(std::move(chunk_row_counts)) {
  CASPER_CHECK(!chunk_rows_.empty());
  CASPER_CHECK(block_values_ > 0);
  for (const size_t take : chunk_rows_) {
    CASPER_CHECK(take > 0);
    chunk_begin_.push_back(total_rows_);
    const size_t blocks = (take + block_values_ - 1) / block_values_;
    models_.emplace_back(blocks);
    total_rows_ += take;
  }
}

WorkloadCapture::Location WorkloadCapture::Locate(Value v) const {
  const size_t pos = std::min(rank_(v), total_rows_ - 1);
  const size_t chunk = static_cast<size_t>(
      std::upper_bound(chunk_begin_.begin(), chunk_begin_.end(), pos) -
      chunk_begin_.begin() - 1);
  const size_t in_chunk = pos - chunk_begin_[chunk];
  const size_t block =
      std::min(in_chunk / block_values_, models_[chunk].num_blocks() - 1);
  return {chunk, block};
}

void WorkloadCapture::AppendRankedKeys(const Operation& op,
                                       std::vector<Value>* out) {
  switch (op.kind) {
    case OpKind::kPointQuery:
    case OpKind::kInsert:
    case OpKind::kDelete:
      out->push_back(op.a);
      break;
    case OpKind::kRangeCount:
    case OpKind::kRangeSum:
    case OpKind::kRangeMin:
    case OpKind::kRangeMax:
    case OpKind::kRangeAvg:
      if (op.b > op.a) {
        out->push_back(op.a);
        out->push_back(op.b - 1);
      }
      break;
    case OpKind::kUpdate:
      out->push_back(op.a);
      out->push_back(op.b);
      break;
  }
}

template <typename Emit>
void WorkloadCapture::Route(const Operation& op, Emit&& emit) const {
  const auto block32 = [](size_t b) { return static_cast<uint32_t>(b); };
  switch (op.kind) {
    case OpKind::kPointQuery: {
      const Location l = Locate(op.a);
      emit(l.chunk, Event{Event::kPoint, block32(l.block), 0});
      break;
    }
    case OpKind::kRangeCount:
    case OpKind::kRangeSum:
    case OpKind::kRangeMin:
    case OpKind::kRangeMax:
    case OpKind::kRangeAvg: {
      // Every range aggregate touches the same blocks as a range scan; the
      // Frequency Model prices the access pattern, not the aggregate.
      if (op.b <= op.a) break;
      const Location first = Locate(op.a);
      const Location last = Locate(op.b - 1);
      if (first.chunk == last.chunk) {
        emit(first.chunk,
             Event{Event::kRange, block32(first.block), block32(last.block)});
      } else {
        // Split across chunks; each chunk sees its own sub-range.
        emit(first.chunk,
             Event{Event::kRange, block32(first.block),
                   block32(models_[first.chunk].num_blocks() - 1)});
        for (size_t c = first.chunk + 1; c < last.chunk; ++c) {
          emit(c, Event{Event::kRange, 0, block32(models_[c].num_blocks() - 1)});
        }
        emit(last.chunk, Event{Event::kRange, 0, block32(last.block)});
      }
      break;
    }
    case OpKind::kInsert: {
      const Location l = Locate(op.a);
      emit(l.chunk, Event{Event::kInsert, block32(l.block), 0});
      break;
    }
    case OpKind::kDelete: {
      const Location l = Locate(op.a);
      emit(l.chunk, Event{Event::kDelete, block32(l.block), 0});
      break;
    }
    case OpKind::kUpdate: {
      const Location from = Locate(op.a);
      const Location to = Locate(op.b);
      if (from.chunk == to.chunk) {
        emit(from.chunk,
             Event{Event::kUpdate, block32(from.block), block32(to.block)});
      } else {
        // Cross-chunk updates execute as delete + insert.
        emit(from.chunk, Event{Event::kDelete, block32(from.block), 0});
        emit(to.chunk, Event{Event::kInsert, block32(to.block), 0});
      }
      break;
    }
  }
}

void WorkloadCapture::ApplyEvent(size_t chunk, const Event& e) {
  FrequencyModel& fm = models_[chunk];
  switch (e.kind) {
    case Event::kPoint:
      fm.AddPointQuery(e.a);
      break;
    case Event::kRange:
      fm.AddRangeQuery(e.a, e.b);
      break;
    case Event::kInsert:
      fm.AddInsert(e.a);
      break;
    case Event::kDelete:
      fm.AddDelete(e.a);
      break;
    case Event::kUpdate:
      fm.AddUpdate(e.a, e.b);
      break;
  }
}

void WorkloadCapture::Capture(const Operation& op) {
  Route(op, [this](size_t chunk, const Event& e) { ApplyEvent(chunk, e); });
}

void WorkloadCapture::CaptureAll(const std::vector<Operation>& ops,
                                 ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 || models_.size() <= 1) {
    CaptureAll(ops);
    return;
  }
  // Serial routing pass (binary searches only), then per-chunk histogram
  // building in parallel. Each chunk's events stay in stream order, so the
  // resulting models are bit-identical to the serial capture.
  std::vector<std::vector<Event>> buckets(models_.size());
  for (const Operation& op : ops) {
    Route(op, [&buckets](size_t chunk, const Event& e) {
      buckets[chunk].push_back(e);
    });
  }
  exec::MorselFor(pool, models_.size(), [&](size_t c) {
    for (const Event& e : buckets[c]) ApplyEvent(c, e);
  });
}

}  // namespace casper
