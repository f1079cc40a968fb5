#include "mech/hdg.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mech/factory.h"

namespace ldp {
namespace {

Schema TwoDimSchema(uint64_t m1 = 16, uint64_t m2 = 16) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", m1).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", m2).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

Schema ThreeDimSchema(uint64_t m = 16) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", m).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", m).ok());
  EXPECT_TRUE(schema.AddOrdinal("z", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps, uint64_t hint = 0) {
  MechanismParams p;
  p.epsilon = eps;
  p.hash_pool_size = 0;
  p.population_hint = hint;
  return p;
}

TEST(HdgTest, GranularitiesScaleWithBudgetAndPopulation) {
  uint32_t g1 = 0;
  uint32_t g2 = 0;
  HdgGranularities(1.0, 0, 2, &g1, &g2);
  EXPECT_GE(g1, 2u);
  EXPECT_GE(g2, 2u);
  EXPECT_GE(g1, g2);  // 1-D grids afford finer cells than 2-D grids

  // More budget or more users -> finer grids; more grids (dims) -> coarser.
  uint32_t g1_rich = 0, g2_rich = 0;
  HdgGranularities(4.0, 0, 2, &g1_rich, &g2_rich);
  EXPECT_GT(g1_rich, g1);
  uint32_t g1_big = 0, g2_big = 0;
  HdgGranularities(1.0, 1000000, 2, &g1_big, &g2_big);
  EXPECT_GT(g1_big, g1);
  uint32_t g1_many = 0, g2_many = 0;
  HdgGranularities(1.0, 0, 8, &g1_many, &g2_many);
  EXPECT_LE(g1_many, g1);
}

TEST(HdgTest, CreateValidates) {
  EXPECT_FALSE(HdgMechanism::Create(TwoDimSchema(), Params(0.0)).ok());
  Schema no_sensitive;
  ASSERT_TRUE(no_sensitive.AddMeasure("w").ok());
  EXPECT_FALSE(HdgMechanism::Create(no_sensitive, Params(1.0)).ok());
}

TEST(HdgTest, LayoutBuildsOneDimAndPairGrids) {
  auto two = HdgMechanism::Create(TwoDimSchema(), Params(2.0)).ValueOrDie();
  EXPECT_EQ(two->num_grids(), 3);  // 2 one-dim + C(2,2) = 1 pair
  EXPECT_EQ(two->NumReportGroups(), 3u);
  auto three = HdgMechanism::Create(ThreeDimSchema(), Params(2.0)).ValueOrDie();
  EXPECT_EQ(three->num_grids(), 6);  // 3 one-dim + C(3,2) = 3 pairs
  EXPECT_GE(three->g1(), three->g2());
  EXPECT_GE(three->g2(), 2u);
}

TEST(HdgTest, EncodePicksUniformGrid) {
  auto mech = HdgMechanism::Create(ThreeDimSchema(), Params(1.0)).ValueOrDie();
  Rng rng(1);
  std::vector<int> counts(mech->num_grids(), 0);
  const int trials = 6000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<uint32_t> values = {3, 7, 11};
    const LdpReport r = mech->EncodeUser(values, rng);
    ASSERT_EQ(r.entries.size(), 1u);
    ASSERT_LT(r.entries[0].group, static_cast<uint32_t>(mech->num_grids()));
    ++counts[r.entries[0].group];
  }
  const double expected = static_cast<double>(trials) / counts.size();
  for (size_t g = 0; g < counts.size(); ++g) {
    EXPECT_NEAR(counts[g], expected, expected * 0.25) << "grid " << g;
  }
}

TEST(HdgTest, ValidateRejectsMalformedReports) {
  auto mech = HdgMechanism::Create(TwoDimSchema(), Params(1.0)).ValueOrDie();
  LdpReport bad_group;
  bad_group.entries.push_back({99, {}});
  EXPECT_FALSE(mech->AddReport(bad_group, 0).ok());
  LdpReport empty;
  EXPECT_FALSE(mech->AddReport(empty, 0).ok());
  Rng rng(2);
  LdpReport two_entries = mech->EncodeUser(std::vector<uint32_t>{1, 2}, rng);
  two_entries.entries.push_back(two_entries.entries[0]);
  EXPECT_FALSE(mech->ValidateReport(two_entries).ok());
}

TEST(HdgTest, UnbiasedOnFullResolutionGrids) {
  // Default population hint at eps = 2 clamps both granularities to the full
  // 16-value domains, so no uniformity error: the estimator must be unbiased.
  const double eps = 2.0;
  const uint64_t n = 4000;
  const Schema schema = TwoDimSchema();
  std::vector<std::vector<uint32_t>> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  Rng data_rng(5);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(16))};
    weights[u] = 1.0 + static_cast<double>(u % 3);
    if (values[u][0] >= 3 && values[u][0] <= 12 && values[u][1] >= 5 &&
        values[u][1] <= 14) {
      truth += weights[u];
    }
  }
  const WeightVector w(weights);
  const std::vector<Interval> ranges = {{3, 12}, {5, 14}};
  const int runs = 40;
  Rng rng(6);
  double sum_est = 0.0;
  double mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HdgMechanism::Create(schema, Params(eps)).ValueOrDie();
    EXPECT_GE(mech->g1(), 16u);  // full resolution per the comment above
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    mse += (est - truth) * (est - truth);
  }
  mse /= runs;
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(mse / runs) + 1e-9);
}

TEST(HdgTest, CoarseGridsStayAccurateOnUniformData) {
  // A tiny population hint forces genuinely coarse cells; within-cell
  // uniformity then holds exactly for uniform data, so partial-cell
  // fractions must keep the estimator centered.
  const uint64_t n = 4000;
  const Schema schema = TwoDimSchema(64, 64);
  auto probe = HdgMechanism::Create(schema, Params(1.0, 200)).ValueOrDie();
  ASSERT_LT(probe->g1(), 64u);  // the hint really coarsened the grid
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(7);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(64)),
                 static_cast<uint32_t>(data_rng.UniformInt(64))};
    if (values[u][0] >= 5 && values[u][0] <= 40) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{5, 40}, {0, 63}};
  const int runs = 30;
  Rng rng(8);
  double sum_est = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HdgMechanism::Create(schema, Params(1.0, 200)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    sum_est += mech->EstimateBox(ranges, w).ValueOrDie();
  }
  // Loose band: the point is the fraction arithmetic, not the noise level.
  EXPECT_NEAR(sum_est / runs, truth, 0.25 * n);
}

TEST(HdgTest, WideQueriesUseTheProductFallback) {
  // Three constrained dimensions exceed the materialized pairs; the greedy
  // cover must still produce a finite, sane estimate.
  const uint64_t n = 3000;
  const Schema schema = ThreeDimSchema();
  auto mech = HdgMechanism::Create(schema, Params(2.0)).ValueOrDie();
  Rng rng(9);
  Rng data_rng(10);
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(16)),
        static_cast<uint32_t>(data_rng.UniformInt(16)),
        static_cast<uint32_t>(data_rng.UniformInt(16))};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{0, 7}, {0, 7}, {0, 7}};
  const double est = mech->EstimateBox(ranges, w).ValueOrDie();
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, static_cast<double>(n));  // clamped per-factor selectivities
  const double bound = mech->VarianceBound(ranges, w).ValueOrDie();
  EXPECT_GT(bound, 0.0);
}

TEST(HdgTest, EstimateBoxValidatesRanges) {
  auto mech = HdgMechanism::Create(TwoDimSchema(), Params(1.0)).ValueOrDie();
  Rng rng(11);
  ASSERT_TRUE(
      mech->AddReport(mech->EncodeUser(std::vector<uint32_t>{0, 0}, rng), 0)
          .ok());
  const WeightVector w = WeightVector::Ones(1);
  const std::vector<Interval> one = {{0, 15}};
  EXPECT_FALSE(mech->EstimateBox(one, w).ok());
  const std::vector<Interval> oob = {{0, 16}, {0, 15}};
  EXPECT_FALSE(mech->EstimateBox(oob, w).ok());
}

TEST(HdgTest, FactoryBuildsIt) {
  auto mech = CreateMechanism(MechanismKind::kHdg, TwoDimSchema(), Params(1.0));
  ASSERT_TRUE(mech.ok());
  EXPECT_EQ(mech.value()->kind(), MechanismKind::kHdg);
  EXPECT_EQ(MechanismKindFromString("hdg").ValueOrDie(), MechanismKind::kHdg);
  EXPECT_EQ(MechanismKindName(MechanismKind::kHdg), "HDG");
}

}  // namespace
}  // namespace ldp
