#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/morsel.h"
#include "util/distributions.h"
#include "util/latency_recorder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace casper {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  // Different seeds diverge (overwhelmingly likely).
  Rng a2(7);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a2.Next() != c.Next());
  EXPECT_TRUE(differs);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Distributions, UniformCoversDomain) {
  Rng rng(5);
  UniformDistribution u;
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = u.Sample(rng);
    mn = std::min(mn, x);
    mx = std::max(mx, x);
    sum += x;
  }
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Distributions, ZipfIsSkewedTowardLowRanks) {
  Rng rng(5);
  ZipfDistribution z(1000, 0.99);
  int low = 0, high = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = z.Sample(rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    if (x < 0.1) ++low;
    if (x > 0.9) ++high;
  }
  EXPECT_GT(low, 5 * high);  // strong head skew
}

TEST(Distributions, ZipfThetaZeroIsNearUniform) {
  Rng rng(5);
  ZipfDistribution z(1 << 20, 0.0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += z.Sample(rng);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Distributions, HotspotConcentratesMass) {
  Rng rng(9);
  HotspotDistribution h(0.8, 0.2, 0.9);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = h.Sample(rng);
    if (x >= 0.8) ++hot;
  }
  // 90% targeted + ~2% of the uniform remainder.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.9 + 0.1 * 0.2, 0.02);
}

TEST(Distributions, RotationWrapsAround) {
  Rng rng(11);
  auto base = std::make_shared<HotspotDistribution>(0.9, 0.1, 1.0);
  RotatedDistribution rot(base, 0.2);
  // Hot region [0.9, 1.0) rotated by 0.2 lands in [0.1, 0.2).
  for (int i = 0; i < 1000; ++i) {
    const double x = rot.Sample(rng);
    ASSERT_GE(x, 0.1);
    ASSERT_LT(x, 0.2 + 1e-9);
  }
}

TEST(ThreadPool, MorselForCoversAllIndices) {
  ThreadPool pool(4);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    exec::MorselFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << n;
  }
}

// One worker, blocked in task B until task A has run, with A queued behind
// B: only the waiting caller can run A. B gives up after a timeout so that a
// Wait that leaves queued tasks to the workers fails instead of hanging.
TEST(ThreadPool, WaitRunsQueuedTasksOnTheCaller) {
  ThreadPool pool(1);
  std::promise<void> b_started;
  std::promise<void> a_ran;
  std::shared_future<void> a_done = a_ran.get_future().share();
  bool b_saw_a = false;
  pool.Submit([&] {
    b_started.set_value();
    b_saw_a = a_done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  });
  b_started.get_future().wait();
  pool.Submit([&] { a_ran.set_value(); });
  pool.Wait();
  EXPECT_TRUE(b_saw_a);
}

TEST(ThreadPool, WaitBlocksUntilTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(LatencyRecorder, Percentiles) {
  LatencyRecorder rec;
  for (uint64_t i = 1; i <= 1000; ++i) rec.Record(i * 1000);  // 1..1000 us
  EXPECT_EQ(rec.count(), 1000u);
  EXPECT_NEAR(rec.MeanMicros(), 500.5, 0.01);
  EXPECT_NEAR(rec.PercentileMicros(0.5), 500.0, 2.0);
  EXPECT_NEAR(rec.PercentileMicros(0.999), 999.0, 2.0);
  EXPECT_NEAR(rec.MaxMicros(), 1000.0, 0.01);
}

}  // namespace
}  // namespace casper
