#include "model/frequency_model.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace casper {

FrequencyModel::FrequencyModel(size_t num_blocks) : num_blocks_(num_blocks) {
  CASPER_CHECK_MSG(num_blocks > 0, "FrequencyModel needs at least one block");
  for (auto* h : {&pq_, &rs_, &sc_, &re_, &de_, &in_, &udf_, &utf_, &udb_, &utb_}) {
    h->assign(num_blocks, 0.0);
  }
}

void FrequencyModel::AddPointQuery(size_t b) {
  CASPER_CHECK(b < num_blocks_);
  pq_[b] += 1.0;
  total_ops_ += 1.0;
}

void FrequencyModel::AddRangeQuery(size_t first, size_t last) {
  CASPER_CHECK(first <= last && last < num_blocks_);
  rs_[first] += 1.0;
  re_[last] += 1.0;
  for (size_t b = first + 1; b < last; ++b) sc_[b] += 1.0;
  total_ops_ += 1.0;
}

void FrequencyModel::AddInsert(size_t b) {
  CASPER_CHECK(b < num_blocks_);
  in_[b] += 1.0;
  total_ops_ += 1.0;
}

void FrequencyModel::AddDelete(size_t b) {
  CASPER_CHECK(b < num_blocks_);
  de_[b] += 1.0;
  total_ops_ += 1.0;
}

void FrequencyModel::AddUpdate(size_t from, size_t to) {
  CASPER_CHECK(from < num_blocks_ && to < num_blocks_);
  if (to > from) {
    udf_[from] += 1.0;
    utf_[to] += 1.0;
  } else {
    udb_[from] += 1.0;
    utb_[to] += 1.0;
  }
  total_ops_ += 1.0;
}

void FrequencyModel::Merge(const FrequencyModel& other) {
  CASPER_CHECK_MSG(num_blocks_ == other.num_blocks_, "block count mismatch in Merge");
  auto add = [](std::vector<double>& a, const std::vector<double>& b) {
    for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  add(pq_, other.pq_);
  add(rs_, other.rs_);
  add(sc_, other.sc_);
  add(re_, other.re_);
  add(de_, other.de_);
  add(in_, other.in_);
  add(udf_, other.udf_);
  add(utf_, other.utf_);
  add(udb_, other.udb_);
  add(utb_, other.utb_);
  total_ops_ += other.total_ops_;
}

void FrequencyModel::Scale(double factor) {
  CASPER_CHECK(factor >= 0.0);
  for (auto* h : {&pq_, &rs_, &sc_, &re_, &de_, &in_, &udf_, &utf_, &udb_, &utb_}) {
    for (auto& v : *h) v *= factor;
  }
  total_ops_ *= factor;
}

FrequencyModel FrequencyModel::Rescale(size_t new_num_blocks) const {
  CASPER_CHECK(new_num_blocks > 0);
  FrequencyModel out(new_num_blocks);
  out.total_ops_ = total_ops_;
  const double ratio = static_cast<double>(new_num_blocks) / num_blocks_;
  const std::vector<double>* src[] = {&pq_, &rs_, &sc_, &re_, &de_,
                                      &in_, &udf_, &utf_, &udb_, &utb_};
  std::vector<double>* dst[] = {&out.pq_, &out.rs_, &out.sc_, &out.re_, &out.de_,
                                &out.in_, &out.udf_, &out.utf_, &out.udb_, &out.utb_};
  for (int h = 0; h < 10; ++h) {
    for (size_t i = 0; i < num_blocks_; ++i) {
      const double mass = (*src[h])[i];
      if (mass == 0.0) continue;
      // Old bin i covers [i*ratio, (i+1)*ratio) in new-bin coordinates.
      double lo = i * ratio;
      const double hi = (i + 1) * ratio;
      while (lo < hi - 1e-12) {
        const size_t bin = std::min(new_num_blocks - 1, static_cast<size_t>(lo));
        const double seg = std::min(hi, static_cast<double>(bin + 1)) - lo;
        (*dst[h])[bin] += mass * seg / (hi - i * ratio);
        lo += seg;
      }
    }
  }
  return out;
}

bool FrequencyModel::Empty() const {
  for (const auto* h : {&pq_, &rs_, &sc_, &re_, &de_, &in_, &udf_, &utf_, &udb_, &utb_}) {
    for (const double v : *h) {
      if (v != 0.0) return false;
    }
  }
  return true;
}

}  // namespace casper
