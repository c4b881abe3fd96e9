#include "exec/mixed_workload_runner.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "exec/morsel.h"
#include "util/thread_pool.h"

namespace casper {

namespace {

/// One schedulable unit: a single read query or a maximal write run.
struct Item {
  bool is_write = false;
  uint32_t begin = 0;  ///< [begin, end) indices into the op stream
  uint32_t end = 0;
  std::vector<size_t> domains;     ///< sorted, deduped latch footprint
  std::vector<uint32_t> succs;     ///< items unblocked by this one
  size_t dep_count = 0;            ///< incoming edges (duplicates counted)
};

}  // namespace

ScanPartial ExecuteScanOnPool(const LayoutEngine& engine, const ScanSpec& spec,
                              ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    return engine.ExecuteScan(spec);
  }
  const auto partials = exec::MorselMap<ScanPartial>(
      pool, engine.NumShards(),
      [&](size_t s) { return engine.ScanSpecShard(s, spec); });
  ScanPartial total;
  for (const ScanPartial& p : partials) total.Merge(p);
  return total;
}

MixedResult MixedWorkloadRunner::Run(LayoutEngine& engine,
                                     const std::vector<Operation>& ops,
                                     const std::vector<size_t>& sum_cols) const {
  MixedResult result;
  result.results.assign(ops.size(), 0);
  if (ops.empty()) return result;

  // --- 1. Split the stream into items and compute latch footprints. --------
  std::vector<Item> items;
  bool has_writes = false;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (IsWriteKind(op.kind)) {
      has_writes = true;
      // Start a new run iff the previous item is not a write run (every
      // prior op produced an item ending exactly at i, so runs are maximal).
      if (items.empty() || !items.back().is_write) {
        Item item;
        item.is_write = true;
        item.begin = i;
        items.push_back(std::move(item));
      }
      Item& item = items.back();
      item.end = i + 1;
      item.domains.push_back(engine.WriteDomain(op.a));
      if (op.kind == OpKind::kUpdate) {
        item.domains.push_back(engine.WriteDomain(op.b));
      }
    } else {
      Item item;
      item.begin = i;
      item.end = i + 1;
      if (op.kind == OpKind::kPointQuery) {
        item.domains.push_back(engine.WriteDomain(op.a));
      } else if (op.a < op.b) {
        engine.ReadDomains(op.a, op.b, &item.domains);
      }
      items.push_back(std::move(item));
    }
  }
  for (Item& item : items) {
    std::sort(item.domains.begin(), item.domains.end());
    item.domains.erase(std::unique(item.domains.begin(), item.domains.end()),
                       item.domains.end());
  }

  // Read-only streams carry a chunk snapshot across the run: the epochs
  // reveal (non-fatally) whether an external writer overlapped — external
  // writers are legal under the latches, they just make results
  // bounded-stale instead of serial-equivalent.
  const ChunkSnapshot snapshot =
      has_writes ? ChunkSnapshot{} : ChunkSnapshot::Capture(engine, oracle_);

  // Specs for the range-read ops, built once on this (serial) setup path:
  // workers only read them, so the concurrent phase never allocates or
  // mutates shared spec state.
  std::vector<ScanSpec> read_specs(ops.size());
  for (uint32_t i = 0; i < ops.size(); ++i) {
    if (!IsWriteKind(ops[i].kind) && ops[i].kind != OpKind::kPointQuery) {
      read_specs[i] = SpecForOperation(ops[i], sum_cols);
    }
  }

  // --- 2. Per-op executors (shared by the serial and DAG paths). -----------
  // Write accounting folded from concurrent items: pure counters, no
  // ordering implied (the DAG dependency edges carry the happens-before).
  RelaxedCounter inserts;
  RelaxedCounter deletes;
  RelaxedCounter updates;
  RelaxedCounter last_ts;

  auto run_read = [&](uint32_t i) {
    const Operation& op = ops[i];
    if (op.kind == OpKind::kPointQuery) {
      result.results[i] = engine.PointLookup(op.a, nullptr);
      return;
    }
    // Every range read — count, sum, min/max/avg — is one ExecuteScan; the
    // DAG already keeps writers off the chunks it reads, and the per-op
    // value uses the same Result extraction as the serial harness, so mixed
    // results stay bit-identical to serial replay.
    const ScanSpec& spec = read_specs[i];
    result.results[i] = engine.ExecuteScan(spec).Result(spec.agg);
  };
  auto run_item = [&](const Item& item) {
    if (!item.is_write) {
      run_read(item.begin);
      return;
    }
    // Grouped commit under the per-chunk exclusive latches; chunk-disjoint
    // write items execute this concurrently from different workers.
    const BatchResult br =
        engine.ApplyBatch(ops.data() + item.begin, item.end - item.begin,
                          /*pool=*/nullptr);
    inserts.Add(br.inserts);
    deletes.Add(br.deletes);
    updates.Add(br.updates);
    if (oracle_ != nullptr) {
      last_ts.UpdateMax(oracle_->Next());
    }
  };

  // --- 3. Execute: serial replay, or the conflict DAG over the pool. -------
  if (pool_ == nullptr || pool_->num_threads() <= 1 || items.size() == 1) {
    for (const Item& item : items) run_item(item);
  } else {
    // Per-domain edge construction mirroring shared/exclusive latch
    // compatibility in stream order: readers since the last write all block
    // the next write; the last write blocks everything after it until the
    // next write supersedes it.
    const size_t num_domains = engine.NumLatchDomains();
    std::vector<uint32_t> last_write(num_domains, UINT32_MAX);
    std::vector<std::vector<uint32_t>> readers(num_domains);
    for (uint32_t i = 0; i < items.size(); ++i) {
      for (const size_t d : items[i].domains) {
        if (!items[i].is_write) {
          if (last_write[d] != UINT32_MAX) {
            items[last_write[d]].succs.push_back(i);
            ++items[i].dep_count;
          }
          readers[d].push_back(i);
        } else {
          if (readers[d].empty()) {
            if (last_write[d] != UINT32_MAX) {
              items[last_write[d]].succs.push_back(i);
              ++items[i].dep_count;
            }
          } else {
            for (const uint32_t r : readers[d]) {
              items[r].succs.push_back(i);
              ++items[i].dep_count;
            }
            readers[d].clear();
          }
          last_write[d] = i;
        }
      }
    }

    std::unique_ptr<std::atomic<size_t>[]> deps(
        new std::atomic<size_t>[items.size()]);
    for (size_t i = 0; i < items.size(); ++i) {
      deps[i].store(items[i].dep_count, std::memory_order_relaxed);
    }
    // Submission recursion: finishing an item releases its successors, which
    // enqueue themselves the moment their last dependency resolves. The
    // acquire/release dependency counter carries the happens-before from
    // every predecessor's effects to the successor's execution.
    std::function<void(uint32_t)> submit = [&](uint32_t i) {
      pool_->Submit([&, i] {
        run_item(items[i]);
        for (const uint32_t s : items[i].succs) {
          if (deps[s].fetch_sub(1, std::memory_order_acq_rel) == 1) submit(s);
        }
      });
    };
    for (uint32_t i = 0; i < items.size(); ++i) {
      if (items[i].dep_count == 0) submit(i);
    }
    pool_->Wait();
  }

  // --- 4. Deterministic merge. ---------------------------------------------
  result.inserts = inserts.load();
  result.deletes = deletes.load();
  result.updates = updates.load();
  result.last_commit_ts = last_ts.load();
  for (const uint64_t r : result.results) result.checksum += r;
  result.checksum += result.deletes + result.updates;
  result.quiescent = has_writes || snapshot.Validate(engine);
  return result;
}

MixedResult MixedWorkloadRunner::Run(LayoutEngine& engine,
                                     const std::vector<Operation>& ops) const {
  return Run(engine, ops, DefaultSumColumns(engine));
}

}  // namespace casper
