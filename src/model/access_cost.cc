#include "model/access_cost.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/stopwatch.h"

namespace casper {

namespace {

// Volatile sink defeating dead-code elimination across the timing loops.
volatile int64_t g_sink = 0;

}  // namespace

AccessCostConstants CalibrateEngineCosts(size_t block_values, size_t working_set) {
  static std::mutex mu;
  static std::map<std::pair<size_t, size_t>, AccessCostConstants> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(block_values, working_set);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  working_set = std::max(working_set, size_t{1} << 16);
  std::vector<int64_t> data(working_set, 1);
  Rng rng(7);

  // Sequential per-value scan cost (the engine's partition-scan loop).
  double ns_per_value = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    int64_t acc = 0;
    for (const int64_t v : data) acc += v;
    g_sink = acc;
    ns_per_value =
        std::min(ns_per_value, sw.ElapsedNanos() / static_cast<double>(data.size()));
  }

  // Ripple-step cost: one random element read + one random element write.
  const size_t steps = 1 << 18;
  std::vector<uint32_t> idx(steps * 2);
  for (auto& i : idx) i = static_cast<uint32_t>(rng.Below(working_set));
  double ns_per_step = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (size_t s = 0; s < steps; ++s) {
      data[idx[2 * s]] = data[idx[2 * s + 1]];
    }
    ns_per_step =
        std::min(ns_per_step, sw.ElapsedNanos() / static_cast<double>(steps));
  }

  AccessCostConstants c;
  c.sr = std::max(1.0, ns_per_value * static_cast<double>(block_values));
  c.sw = c.sr;
  c.rr = std::max(1.0, ns_per_step / 2.0);
  c.rw = c.rr;
  cache[key] = c;
  return c;
}

}  // namespace casper
