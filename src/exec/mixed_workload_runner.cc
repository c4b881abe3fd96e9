#include "exec/mixed_workload_runner.h"

#include <cstdint>

#include "exec/morsel.h"
#include "util/thread_pool.h"

namespace casper {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

/// Root of chunk c in the union-find forest (path halving).
uint32_t Root(std::vector<uint32_t>& parent, uint32_t c) {
  while (parent[c] != c) c = parent[c] = parent[parent[c]];
  return c;
}

/// Splits the stream into chunk groups and returns the morsel count, with
/// (*morsel_of)[i] the morsel that runs ops[i]. The chunks the stream
/// writes are joined through every operation that touches two of them, and
/// each resulting group is one morsel; a read that touches no written chunk
/// is a morsel on its own. Two morsels never touch a common written chunk,
/// so their operations commute.
size_t AssignChunkGroups(const PartitionedTable& table,
                         const std::vector<Operation>& ops,
                         std::vector<uint32_t>* morsel_of) {
  // Footprints: a write touches ChunkFor(a), and an update ChunkFor(b) too;
  // chunks cover contiguous sorted key ranges, so a range read touches the
  // window [ChunkFor(lo), ChunkFor(hi - 1)]; an empty range keeps the empty
  // window [1, 0]. parent[c] stays kNone while chunk c is unwritten.
  const size_t n = ops.size();
  std::vector<uint32_t> first(n, 1);
  std::vector<uint32_t> last(n, 0);
  std::vector<uint32_t> parent(table.num_chunks(), kNone);
  for (size_t i = 0; i < n; ++i) {
    const Operation& op = ops[i];
    if (op.kind == OpKind::kPointQuery || IsWriteKind(op.kind)) {
      first[i] = static_cast<uint32_t>(table.ChunkFor(op.a));
      last[i] = op.kind == OpKind::kUpdate ? static_cast<uint32_t>(table.ChunkFor(op.b))
                                           : first[i];
      if (IsWriteKind(op.kind)) {
        parent[first[i]] = first[i];
        parent[last[i]] = last[i];
      }
    } else if (op.a < op.b) {
      first[i] = static_cast<uint32_t>(table.ChunkFor(op.a));
      last[i] = static_cast<uint32_t>(table.ChunkFor(op.b - 1));
    }
  }
  // Join each operation's written chunks and anchor it to one of them.
  std::vector<uint32_t>& anchor = *morsel_of;
  anchor.assign(n, kNone);
  for (size_t i = 0; i < n; ++i) {
    if (IsWriteKind(ops[i].kind)) {
      anchor[i] = Root(parent, first[i]);
      parent[Root(parent, last[i])] = anchor[i];
      continue;
    }
    for (uint32_t c = first[i]; c <= last[i]; ++c) {
      if (parent[c] == kNone) continue;
      if (anchor[i] == kNone) {
        anchor[i] = Root(parent, c);
      } else {
        parent[Root(parent, c)] = Root(parent, anchor[i]);
      }
    }
  }
  // Number the groups and the unanchored reads in stream order.
  std::vector<uint32_t> group(parent.size(), kNone);
  uint32_t morsels = 0;
  for (size_t i = 0; i < n; ++i) {
    if (anchor[i] == kNone) {
      anchor[i] = morsels++;
      continue;
    }
    uint32_t& g = group[Root(parent, anchor[i])];
    if (g == kNone) g = morsels++;
    anchor[i] = g;
  }
  return morsels;
}

}  // namespace

ScanPartial ExecuteScanOnPool(const PartitionedLayout& engine, const ScanSpec& spec,
                              ThreadPool* pool) {
  if (spec.EmptyKeyRange()) return ScanPartial();
  const PartitionedTable& table = engine.table();
  const size_t first = spec.full_domain ? 0 : table.ChunkFor(spec.lo);
  const size_t last =
      spec.full_domain ? table.num_chunks() - 1 : table.ChunkFor(spec.hi - 1);
  const auto partials = exec::MorselMap<ScanPartial>(
      pool, last - first + 1,
      [&](size_t i) { return engine.ScanSpecShard(first + i, spec); });
  ScanPartial total;
  for (const ScanPartial& p : partials) total.Merge(p);
  return total;
}

MixedResult MixedWorkloadRunner::Run(PartitionedLayout& engine,
                                     const std::vector<Operation>& ops,
                                     const std::vector<size_t>& sum_cols) const {
  MixedResult result;
  result.results.assign(ops.size(), 0);
  if (ops.empty()) return result;

  // --- 1. Morsels: chunk groups on a pool, else the whole stream. ----------
  std::vector<uint32_t> morsel_of(ops.size(), 0);
  size_t num_morsels = 1;
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    num_morsels = AssignChunkGroups(engine.table(), ops, &morsel_of);
  }
  // Morsel m runs ops order[begin[m]] .. order[begin[m + 1] - 1], in stream
  // order (a stable counting sort by morsel).
  std::vector<uint32_t> begin(num_morsels + 1, 0);
  for (const uint32_t m : morsel_of) ++begin[m + 1];
  for (size_t m = 0; m < num_morsels; ++m) begin[m + 1] += begin[m];
  std::vector<uint32_t> order(ops.size());
  {
    std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
    for (uint32_t i = 0; i < ops.size(); ++i) order[next[morsel_of[i]]++] = i;
  }

  // --- 2. Execute. ---------------------------------------------------------
  // Write accounting folded from concurrent morsels: pure counters, no
  // ordering implied (morsels share no written chunk).
  RelaxedCounter inserts;
  RelaxedCounter deletes;
  RelaxedCounter updates;
  RelaxedCounter last_ts;
  const auto run_morsel = [&](size_t m) {
    std::vector<Operation> run;  // the morsel's pending writes
    const auto flush = [&] {
      if (run.empty()) return;
      // Grouped commit under the per-chunk exclusive latches.
      const BatchResult br = engine.ApplyBatch(run.data(), run.size(), /*pool=*/nullptr);
      inserts.Add(br.inserts);
      deletes.Add(br.deletes);
      updates.Add(br.updates);
      if (oracle_ != nullptr) last_ts.UpdateMax(oracle_->Next());
      run.clear();
    };
    for (uint32_t k = begin[m]; k < begin[m + 1]; ++k) {
      const uint32_t i = order[k];
      const Operation& op = ops[i];
      if (IsWriteKind(op.kind)) {
        run.push_back(op);
        continue;
      }
      flush();
      if (op.kind == OpKind::kPointQuery) {
        result.results[i] = engine.PointLookup(op.a, nullptr);
      } else {
        // The per-op value uses the same Result extraction as the serial
        // harness, so mixed results stay bit-identical to serial replay.
        const ScanSpec spec = SpecForOperation(op, sum_cols);
        result.results[i] = engine.ExecuteScan(spec).Result(spec.agg);
      }
    }
    flush();
  };
  exec::MorselFor(pool_, num_morsels, run_morsel);

  // --- 3. Deterministic merge. ---------------------------------------------
  result.inserts = inserts.load();
  result.deletes = deletes.load();
  result.updates = updates.load();
  result.last_commit_ts = last_ts.load();
  for (const uint64_t r : result.results) result.checksum += r;
  result.checksum += result.deletes + result.updates;
  return result;
}

MixedResult MixedWorkloadRunner::Run(PartitionedLayout& engine,
                                     const std::vector<Operation>& ops) const {
  return Run(engine, ops, DefaultSumColumns(engine));
}

}  // namespace casper
