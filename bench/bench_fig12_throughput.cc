// Reproduces paper Fig. 12: throughput of the six layout modes across the
// six HAP workloads, normalized to the state-of-the-art delta store. The
// paper reports Casper at 1.75x/2.14x (hybrid), ~0.95-1.16x (read-only),
// and 2.28x/2.32x (update-only) of the delta store.
//
// Each cell is the median of kRepeats replays, each on a freshly built
// layout, over State-of-art's median: a short update-only replay lasts tens
// of milliseconds, so a single sample of the base would scale its whole row
// by the host's noise.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace casper::bench {
namespace {

constexpr int kRepeats = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Main() {
  PrintHeader("Figure 12",
              "normalized throughput: 6 layouts x 6 HAP workloads");
  const size_t rows = ScaledRows(SmokeMode() ? 200'000 : 2'000'000);
  const size_t num_ops = NumOps();
  std::printf("rows=%zu ops=%zu ghost=1%%\n\n", rows, num_ops);

  const auto workloads = hap::Figure12Workloads();
  std::printf("%-24s", "workload");
  for (const LayoutMode mode : AllLayouts()) {
    std::printf(" %12s", std::string(LayoutModeName(mode)).c_str());
  }
  std::printf("   (x State-of-art, median of %d)  State-of-art ops/s\n",
              kRepeats);

  // Per workload, whether every replay of each layout has State-of-art's
  // checksum: every replay runs the same stream over the same rows.
  std::vector<std::pair<std::string, std::map<LayoutMode, bool>>> agree;
  for (const auto w : workloads) {
    BuiltWorkload exp = MakeHapExperiment(w, rows, num_ops);
    std::map<LayoutMode, std::vector<double>> tput;
    std::map<LayoutMode, std::vector<uint64_t>> checksum;
    // Round-robin over the layouts, so drift in the host's speed spreads
    // over every column alike.
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (const LayoutMode mode : AllLayouts()) {
        const HarnessResult r = RunLayout(mode, exp);
        tput[mode].push_back(r.ThroughputOpsPerSec());
        checksum[mode].push_back(r.checksum);
      }
    }
    const double base = Median(tput[LayoutMode::kDeltaStore]);
    const uint64_t base_checksum = checksum[LayoutMode::kDeltaStore].front();
    const std::string name(hap::WorkloadName(w));
    std::printf("%-24s", name.c_str());
    agree.emplace_back(name, std::map<LayoutMode, bool>());
    for (const LayoutMode mode : AllLayouts()) {
      std::printf(" %12.2f", Median(tput[mode]) / base);
      const std::vector<uint64_t>& sums = checksum[mode];
      agree.back().second[mode] =
          std::all_of(sums.begin(), sums.end(),
                      [&](uint64_t c) { return c == base_checksum; });
    }
    std::printf("   %14.0f\n", base);
  }

  std::printf("\n%-24s", "all checksums = SoA");
  for (const LayoutMode mode : AllLayouts()) {
    std::printf(" %12s", std::string(LayoutModeName(mode)).c_str());
  }
  std::printf("\n");
  for (const auto& [name, same] : agree) {
    std::printf("%-24s", name.c_str());
    for (const LayoutMode mode : AllLayouts()) {
      std::printf(" %12s", same.at(mode) ? "yes" : "NO");
    }
    std::printf("\n");
  }
  std::printf("\n(paper, Casper column: hybrid,skewed 1.75 | hybrid,range 2.14 | "
              "read-only,skewed 0.95 |\n read-only,uniform 1.44 (text) | "
              "update-only,skewed 2.28 | update-only,uniform 2.32)\n");
  return 0;
}

}  // namespace
}  // namespace casper::bench

int main() { return casper::bench::Main(); }
