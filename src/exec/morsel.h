#ifndef CASPER_EXEC_MORSEL_H_
#define CASPER_EXEC_MORSEL_H_

#include <cstddef>
#include <vector>

#include "storage/types.h"
#include "util/thread_pool.h"

namespace casper::exec {

/// The engine's one fan-out loop: runs fn(i) for every i in [0, n). Work is
/// handed out morsel-at-a-time: each thread pulls the next index from a
/// shared atomic counter, so a skewed morsel (one hot chunk) does not stall
/// the rest behind a static split. The calling thread pulls morsels too, and
/// ThreadPool::Wait runs any helper task that no worker has picked up yet,
/// so a short fan-out finishes on the caller instead of waiting for a
/// worker to wake. Callers that need deterministic answers write fn(i) into
/// slot i and merge in index order (MorselMap).
///
/// A plain serial loop when there is no pool, a single worker, or a single
/// morsel. `fn` must not call Wait on the same pool.
template <typename Fn>
void MorselFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RelaxedCounter next;  // work cursor: distinct indices, no ordering implied
  const auto drain = [&next, n, &fn] {
    for (size_t i = next.FetchAdd(1); i < n; i = next.FetchAdd(1)) fn(i);
  };
  const size_t helpers = pool->num_threads() < n - 1 ? pool->num_threads() : n - 1;
  for (size_t h = 0; h < helpers; ++h) pool->Submit(drain);
  drain();
  pool->Wait();
}

/// MorselFor that returns the n results in index order: slot i always holds
/// fn(i), whichever thread ran it, so merging partials in index order is
/// bit-identical to a serial loop regardless of scheduling.
template <typename T, typename Fn>
std::vector<T> MorselMap(ThreadPool* pool, size_t n, const Fn& fn) {
  std::vector<T> partials(n);
  MorselFor(pool, n, [&partials, &fn](size_t i) { partials[i] = fn(i); });
  return partials;
}

}  // namespace casper::exec

#endif  // CASPER_EXEC_MORSEL_H_
