// Reproduces paper Fig. 12: throughput of the six layout modes across the
// six HAP workloads, normalized to the state-of-the-art delta store. The
// paper reports Casper at 1.75x/2.14x (hybrid), ~0.95-1.16x (read-only),
// and 2.28x/2.32x (update-only) of the delta store.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace casper::bench {
namespace {

int Main() {
  PrintHeader("Figure 12",
              "normalized throughput: 6 layouts x 6 HAP workloads");
  const size_t rows = ScaledRows(2'000'000);
  const size_t num_ops = NumOps();
  std::printf("rows=%zu ops=%zu ghost=1%%\n\n", rows, num_ops);

  const auto workloads = hap::Figure12Workloads();
  std::printf("%-24s", "workload");
  for (const LayoutMode mode : AllLayouts()) {
    std::printf(" %12s", std::string(LayoutModeName(mode)).c_str());
  }
  std::printf("   (x State-of-art)\n");

  // Per workload, whether each layout's checksum equals State-of-art's:
  // every layout replays the same stream over the same rows.
  std::vector<std::pair<std::string, std::map<LayoutMode, bool>>> agree;
  for (const auto w : workloads) {
    BuiltWorkload exp = MakeHapExperiment(w, rows, num_ops);
    std::map<LayoutMode, double> tput;
    std::map<LayoutMode, uint64_t> checksum;
    for (const LayoutMode mode : AllLayouts()) {
      const HarnessResult r = RunLayout(mode, exp);
      tput[mode] = r.ThroughputOpsPerSec();
      checksum[mode] = r.checksum;
    }
    const double base = tput[LayoutMode::kDeltaStore];
    const std::string name(hap::WorkloadName(w));
    std::printf("%-24s", name.c_str());
    agree.emplace_back(name, std::map<LayoutMode, bool>());
    for (const LayoutMode mode : AllLayouts()) {
      std::printf(" %12.2f", tput[mode] / base);
      agree.back().second[mode] = checksum[mode] == checksum[LayoutMode::kDeltaStore];
    }
    std::printf("\n");
  }

  std::printf("\n%-24s", "checksum = State-of-art");
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
