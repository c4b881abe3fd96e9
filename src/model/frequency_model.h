#ifndef CASPER_MODEL_FREQUENCY_MODEL_H_
#define CASPER_MODEL_FREQUENCY_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace casper {

/// The Frequency Model (paper §4.2): ten per-block histograms that overlay a
/// sample workload's access patterns onto the data distribution. Bin i of
/// each histogram refers to logical block i of a column chunk.
///
///   pq   point-query accesses
///   rs   range-query start blocks
///   sc   full block scans by range queries (intermediate blocks)
///   re   range-query end blocks
///   de   deletes targeting the block
///   in   inserts landing in the block
///   udf  update-from with forward ripple (old value's block, new > old)
///   utf  update-to   with forward ripple (new value's block)
///   udb  update-from with backward ripple (old value's block, new <= old)
///   utb  update-to   with backward ripple (new value's block)
///
/// Frequencies are doubles so that models can be scaled/merged (e.g. learned
/// from access-pattern distributions instead of an explicit sample, §4.3).
class FrequencyModel {
 public:
  FrequencyModel() = default;
  explicit FrequencyModel(size_t num_blocks);

  size_t num_blocks() const { return num_blocks_; }

  // --- Capture (one call per operation of the sample workload) -------------

  /// Point query whose value (if present) lives in block `b`.
  void AddPointQuery(size_t b);

  /// Range query covering blocks [first, last]. Increments rs[first],
  /// re[last], and sc for every strictly intermediate block. A range that
  /// falls inside one block increments rs and re on that block.
  void AddRangeQuery(size_t first, size_t last);

  /// Insert routed to block `b`.
  void AddInsert(size_t b);

  /// Delete whose victim lives in block `b`.
  void AddDelete(size_t b);

  /// Update moving a value from block `from` to block `to`. Forward ripple
  /// when `to > from` (udf/utf), else backward (udb/utb); `to == from` is
  /// recorded as backward by the paper's convention (§4.4).
  void AddUpdate(size_t from, size_t to);

  // --- Accessors ------------------------------------------------------------

  const std::vector<double>& pq() const { return pq_; }
  const std::vector<double>& rs() const { return rs_; }
  const std::vector<double>& sc() const { return sc_; }
  const std::vector<double>& re() const { return re_; }
  const std::vector<double>& de() const { return de_; }
  const std::vector<double>& in() const { return in_; }
  const std::vector<double>& udf() const { return udf_; }
  const std::vector<double>& utf() const { return utf_; }
  const std::vector<double>& udb() const { return udb_; }
  const std::vector<double>& utb() const { return utb_; }

  // Mutable access for learned models (§4.3) and tests.
  std::vector<double>& mutable_pq() { return pq_; }
  std::vector<double>& mutable_rs() { return rs_; }
  std::vector<double>& mutable_sc() { return sc_; }
  std::vector<double>& mutable_re() { return re_; }
  std::vector<double>& mutable_de() { return de_; }
  std::vector<double>& mutable_in() { return in_; }
  std::vector<double>& mutable_udf() { return udf_; }
  std::vector<double>& mutable_utf() { return utf_; }
  std::vector<double>& mutable_udb() { return udb_; }
  std::vector<double>& mutable_utb() { return utb_; }

  /// Total number of captured operations (updates count once).
  double total_operations() const { return total_ops_; }

  // --- Transformations -------------------------------------------------------

  /// Accumulate another model (histogram-wise sum). Block counts must match.
  void Merge(const FrequencyModel& other);

  /// Multiply all frequencies by `factor` (workload mass scaling).
  void Scale(double factor);

  /// Re-bin to `new_num_blocks` (coarser or finer); mass is distributed
  /// proportionally to bin overlap. This is the paper's variable histogram
  /// granularity knob (§4.3, §6.3).
  FrequencyModel Rescale(size_t new_num_blocks) const;

  /// True when every histogram is all-zero.
  bool Empty() const;


 private:
  size_t num_blocks_ = 0;
  double total_ops_ = 0;
  std::vector<double> pq_, rs_, sc_, re_, de_, in_, udf_, utf_, udb_, utb_;
};

}  // namespace casper

#endif  // CASPER_MODEL_FREQUENCY_MODEL_H_
