#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "model/access_cost.h"
#include "model/cost_model.h"
#include "model/frequency_model.h"
#include "optimizer/partitioning.h"
#include "util/rng.h"

namespace casper {
namespace {

AccessCostConstants PaperConstants() {
  AccessCostConstants c;
  c.rr = 100.0;
  c.rw = 100.0;
  c.sr = 100.0 / 14.0;
  c.sw = 100.0 / 14.0;
  return c;
}

FrequencyModel RandomModel(size_t n, uint64_t seed, bool with_updates = true) {
  FrequencyModel fm(n);
  Rng rng(seed);
  const size_t ops = 50 + rng.Below(100);
  for (size_t o = 0; o < ops; ++o) {
    switch (rng.Below(with_updates ? 5 : 3)) {
      case 0:
        fm.AddPointQuery(rng.Below(n));
        break;
      case 1: {
        size_t a = rng.Below(n), b = rng.Below(n);
        fm.AddRangeQuery(std::min(a, b), std::max(a, b));
        break;
      }
      case 2:
        fm.AddInsert(rng.Below(n));
        break;
      case 3:
        fm.AddDelete(rng.Below(n));
        break;
      default:
        fm.AddUpdate(rng.Below(n), rng.Below(n));
    }
  }
  return fm;
}

TEST(CostTerms, Eq17CoefficientsForSingleOps) {
  const auto c = PaperConstants();
  const size_t n = 6;
  {
    FrequencyModel fm(n);
    fm.AddPointQuery(2);
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.fixed[2], c.rr);
    EXPECT_DOUBLE_EQ(t.bck[2], c.sr);
    EXPECT_DOUBLE_EQ(t.fwd[2], c.sr);
    EXPECT_DOUBLE_EQ(t.parts[2], 0.0);
  }
  {
    FrequencyModel fm(n);
    fm.AddInsert(1);
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.fixed[1], c.rr + c.rw);
    EXPECT_DOUBLE_EQ(t.bck[1], 0.0);
    EXPECT_DOUBLE_EQ(t.fwd[1], 0.0);
    EXPECT_DOUBLE_EQ(t.parts[1], c.rr + c.rw);
  }
  {
    FrequencyModel fm(n);
    fm.AddDelete(4);
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.fixed[4], c.rr + c.rw);
    EXPECT_DOUBLE_EQ(t.bck[4], c.sr);
    EXPECT_DOUBLE_EQ(t.fwd[4], c.sr);
    EXPECT_DOUBLE_EQ(t.parts[4], c.rr + c.rw);
  }
  {
    FrequencyModel fm(n);
    fm.AddUpdate(1, 4);  // forward
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.fixed[1], 2 * c.rr + 2 * c.rw);
    EXPECT_DOUBLE_EQ(t.parts[1], c.rr + c.rw);    // +udf
    EXPECT_DOUBLE_EQ(t.parts[4], -(c.rr + c.rw)); // -utf
  }
  {
    FrequencyModel fm(n);
    fm.AddUpdate(4, 1);  // backward
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.parts[4], -(c.rr + c.rw));  // -udb at from-block
    EXPECT_DOUBLE_EQ(t.parts[1], c.rr + c.rw);     // +utb at to-block
  }
  {
    FrequencyModel fm(n);
    fm.AddRangeQuery(1, 4);
    CostTerms t = CostTerms::Compute(fm, c);
    EXPECT_DOUBLE_EQ(t.fixed[1], c.rr);  // rs: random read to reach the start
    EXPECT_DOUBLE_EQ(t.fixed[2], c.sr);  // sc
    EXPECT_DOUBLE_EQ(t.fixed[3], c.sr);  // sc
    EXPECT_DOUBLE_EQ(t.fixed[4], c.sr);  // re
    EXPECT_DOUBLE_EQ(t.bck[1], c.sr);
    EXPECT_DOUBLE_EQ(t.fwd[4], c.sr);
    EXPECT_DOUBLE_EQ(t.bck[4], 0.0);
    EXPECT_DOUBLE_EQ(t.fwd[1], 0.0);
  }
}

TEST(LayoutCost, PointQueryCostMatchesPaperNarrative) {
  // Paper §4.4: "If p0 = p1 = p2 = 0 and only p3 = 1 then this point query
  // [for block 1] will read all four blocks"; with boundaries around it,
  // one block.
  const auto c = PaperConstants();
  FrequencyModel fm(4);
  fm.AddPointQuery(1);
  CostTerms t = CostTerms::Compute(fm, c);

  Partitioning whole(4);  // only p3 = 1
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, whole), c.rr + 3 * c.sr);

  Partitioning fine = Partitioning::EquiWidth(4, 4);
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, fine), c.rr);
}

TEST(LayoutCost, InsertCostGrowsWithTrailingPartitions) {
  const auto c = PaperConstants();
  FrequencyModel fm(8);
  fm.AddInsert(0);  // first block: worst case, ripples through everything
  CostTerms t = CostTerms::Compute(fm, c);
  for (size_t k : {1u, 2u, 4u, 8u}) {
    Partitioning p = Partitioning::EquiWidth(8, k);
    // Insert in partition 0 ripples through k-1 trailing partitions (Eq. 9).
    EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, p),
                     (c.rr + c.rw) * (1.0 + static_cast<double>(k)))
        << "k=" << k;
  }
}

TEST(LayoutCost, RangeQueryPaysForMisalignedBoundaries) {
  const auto c = PaperConstants();
  FrequencyModel fm(8);
  fm.AddRangeQuery(2, 4);
  CostTerms t = CostTerms::Compute(fm, c);
  // Perfectly aligned partitioning: boundary right before 2 and at 4.
  Partitioning aligned = Partitioning::FromWidths({2, 3, 3});
  const double base = c.rr + 2 * c.sr;  // rs pays RR; sc + re pay SR
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, aligned), base);
  // One partition: rs reads 2 leading blocks, re reads 3 trailing blocks.
  Partitioning whole(8);
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, whole), base + 2 * c.sr + 3 * c.sr);
}

TEST(LayoutCost, LiteralAndDecomposedAgreeOnRandomInstances) {
  const auto c = PaperConstants();
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 2 + rng.Below(14);
    FrequencyModel fm = RandomModel(n, 1000 + trial);
    CostTerms t = CostTerms::Compute(fm, c);
    for (int layout = 0; layout < 20; ++layout) {
      std::vector<uint8_t> bits(n, 0);
      for (size_t i = 0; i + 1 < n; ++i) bits[i] = rng.Below(2);
      bits[n - 1] = 1;
      Partitioning p = Partitioning::FromBoundaryBits(bits);
      const double lit = EvaluateLayoutCostLiteral(t, p);
      const double dec = EvaluateLayoutCost(t, p);
      ASSERT_NEAR(lit, dec, 1e-6 * std::max(1.0, std::abs(lit)))
          << "n=" << n << " layout=" << p.ToString();
    }
  }
}

TEST(LayoutCost, UpdateRippleSpansOnlyInterveningPartitions) {
  const auto c = PaperConstants();
  FrequencyModel fm(8);
  fm.AddUpdate(1, 6);  // forward update from block 1 to block 6
  CostTerms t = CostTerms::Compute(fm, c);
  // With boundaries isolating each block, partitions between blocks 1 and 6
  // number trail(1) - trail(6) = 5.
  Partitioning fine = Partitioning::EquiWidth(8, 8);
  // cost = pq(RR) + (RR + 2RW) + (RR+RW) * 5
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, fine),
                   c.rr + (c.rr + 2 * c.rw) + (c.rr + c.rw) * 5.0);
  // Single partition: no ripple between partitions, but pq scans all blocks.
  Partitioning whole(8);
  EXPECT_DOUBLE_EQ(EvaluateLayoutCost(t, whole),
                   (c.rr + (1 + 6) * c.sr) + (c.rr + 2 * c.rw));
}

TEST(CostModel, MoreStructureCheapensReadsAndTaxesWrites) {
  // Fig. 2a's qualitative claim, via the model itself.
  const auto c = PaperConstants();
  const size_t n = 64;
  FrequencyModel reads(n), writes(n);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) reads.AddPointQuery(rng.Below(n));
  for (int i = 0; i < 500; ++i) writes.AddInsert(rng.Below(n));
  CostTerms tr = CostTerms::Compute(reads, c);
  CostTerms tw = CostTerms::Compute(writes, c);
  double prev_read = -1, prev_write = -1;
  for (size_t k = 1; k <= n; k *= 2) {
    Partitioning p = Partitioning::EquiWidth(n, k);
    const double read_cost = EvaluateLayoutCost(tr, p);
    const double write_cost = EvaluateLayoutCost(tw, p);
    if (prev_read >= 0) {
      EXPECT_LT(read_cost, prev_read) << "reads should get cheaper, k=" << k;
      EXPECT_GT(write_cost, prev_write) << "writes should get costlier, k=" << k;
    }
    prev_read = read_cost;
    prev_write = write_cost;
  }
}

TEST(Predictions, InsertLatencyLinearInTrailingPartitions) {
  const auto c = PaperConstants();
  Partitioning p = Partitioning::EquiWidth(100, 10);
  for (size_t m = 0; m < 10; ++m) {
    // Eq. 9: (RR + RW) * (1 + trail_parts), trail_parts = k - m.
    EXPECT_DOUBLE_EQ(PredictInsertLatency(p, m, c),
                     (c.rr + c.rw) * (1.0 + (10.0 - static_cast<double>(m))));
  }
}

TEST(Predictions, PointQueryLatencyLinearInPartitionWidth) {
  const auto c = PaperConstants();
  EXPECT_DOUBLE_EQ(PredictPointQueryLatency(1, c), c.rr);
  EXPECT_DOUBLE_EQ(PredictPointQueryLatency(16, c), c.rr + 15 * c.sr);
}

TEST(Predictions, UniformSummaryIsConsistent) {
  const auto c = PaperConstants();
  Partitioning p = Partitioning::EquiWidth(64, 8);
  auto u = PredictUniform(p, c);
  // Equi-width: every partition is 8 blocks; expected PQ cost is exact.
  EXPECT_NEAR(u.point_query_ns, c.rr + 7 * c.sr, 1e-9);
  // Average trail_parts over m = (8 + 7 + ... + 1)/8 = 4.5 (Eq. 9).
  EXPECT_NEAR(u.insert_ns, (c.rr + c.rw) * (1.0 + 4.5), 1e-9);
  EXPECT_GT(u.delete_ns, u.insert_ns * 0.5);
}

}  // namespace
}  // namespace casper
