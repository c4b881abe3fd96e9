#ifndef CASPER_EXEC_MORSEL_H_
#define CASPER_EXEC_MORSEL_H_

#include <cstddef>
#include <vector>

#include "storage/types.h"
#include "util/thread_pool.h"

namespace casper::exec {

/// The engine's one fan-out loop: runs fn(state, i) for every i in [0, n).
/// Work is handed out morsel-at-a-time: each thread pulls the next index
/// from a shared atomic counter, so a skewed morsel (one hot chunk) does not
/// stall the rest behind a static split. The calling thread pulls morsels
/// too, and ThreadPool::Wait runs any helper task that no worker has picked
/// up yet, so a short fan-out finishes on the caller instead of waiting for
/// a worker to wake. Each thread that pulls a morsel first makes its own
/// `state` with make_state() and hands it to every morsel it runs, so
/// morsels reuse buffers without sharing them. Callers that need
/// deterministic answers write fn(i) into slot i and merge in index order
/// (MorselMap).
///
/// A plain serial loop when there is no pool, a single worker, or a single
/// morsel. `fn` must not call Wait on the same pool.
template <typename MakeState, typename Fn>
void MorselForWith(ThreadPool* pool, size_t n, const MakeState& make_state,
                   const Fn& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    auto state = make_state();
    for (size_t i = 0; i < n; ++i) fn(state, i);
    return;
  }
  RelaxedCounter next;  // work cursor: distinct indices, no ordering implied
  const auto drain = [&next, n, &make_state, &fn] {
    size_t i = next.FetchAdd(1);
    if (i >= n) return;
    auto state = make_state();
    for (; i < n; i = next.FetchAdd(1)) fn(state, i);
  };
  const size_t helpers = pool->num_threads() < n - 1 ? pool->num_threads() : n - 1;
  for (size_t h = 0; h < helpers; ++h) pool->Submit(drain);
  drain();
  pool->Wait();
}

/// MorselForWith without per-thread state: runs fn(i) for every i in [0, n).
template <typename Fn>
void MorselFor(ThreadPool* pool, size_t n, const Fn& fn) {
  MorselForWith(pool, n, [] { return 0; }, [&fn](int /*unused*/, size_t i) { fn(i); });
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
