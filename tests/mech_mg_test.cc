#include "mech/mg.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/privacy_math.h"

namespace ldp {
namespace {

Schema TwoDimSchema(uint64_t m1, uint64_t m2) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d1", m1).ok());
  EXPECT_TRUE(schema.AddOrdinal("d2", m2).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps) {
  MechanismParams p;
  p.epsilon = eps;
  p.hash_pool_size = 0;
  return p;
}

TEST(MgMechanismTest, CrossProductDomain) {
  auto mech = MgMechanism::Create(TwoDimSchema(16, 8), Params(1.0)).ValueOrDie();
  EXPECT_EQ(mech->total_cells(), 128u);
}

TEST(MgMechanismTest, CreateRejectsHugeDomains) {
  Schema schema;
  for (int i = 0; i < 6; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    ASSERT_TRUE(schema.AddOrdinal(name, 1 << 12).ok());
  }
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  EXPECT_FALSE(MgMechanism::Create(schema, Params(1.0)).ok());
}

TEST(MgMechanismTest, SingleReportPerUser) {
  auto mech = MgMechanism::Create(TwoDimSchema(16, 8), Params(1.0)).ValueOrDie();
  Rng rng(1);
  const std::vector<uint32_t> values = {5, 3};
  const LdpReport r = mech->EncodeUser(values, rng);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].group, 0u);
  EXPECT_EQ(r.SizeWords(), 1u);
}

TEST(MgMechanismTest, AddReportValidates) {
  auto mech = MgMechanism::Create(TwoDimSchema(16, 8), Params(1.0)).ValueOrDie();
  LdpReport bad;
  bad.entries.push_back({1, {}});
  EXPECT_FALSE(mech->AddReport(bad, 0).ok());
  LdpReport two;
  two.entries.push_back({0, {}});
  two.entries.push_back({0, {}});
  EXPECT_FALSE(mech->AddReport(two, 0).ok());
}

TEST(MgMechanismTest, EstimateBoxValidates) {
  auto mech = MgMechanism::Create(TwoDimSchema(16, 8), Params(1.0)).ValueOrDie();
  const WeightVector w = WeightVector::Ones(0);
  const std::vector<Interval> wrong = {{0, 15}};
  EXPECT_FALSE(mech->EstimateBox(wrong, w).ok());
  const std::vector<Interval> bad = {{0, 16}, {0, 7}};
  EXPECT_FALSE(mech->EstimateBox(bad, w).ok());
  const std::vector<Interval> empty = {{3, 2}, {0, 7}};
  EXPECT_FALSE(mech->EstimateBox(empty, w).ok());
}

TEST(MgMechanismTest, BoxCellCapEnforced) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("d1", 1 << 13).ok());
  ASSERT_TRUE(schema.AddOrdinal("d2", 1 << 13).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  auto mech = MgMechanism::Create(schema, Params(1.0)).ValueOrDie();
  Rng rng(1);
  const std::vector<uint32_t> values = {0, 0};
  ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), 0).ok());
  const WeightVector w = WeightVector::Ones(1);
  const std::vector<Interval> huge = {{0, (1 << 13) - 1}, {0, (1 << 13) - 1}};
  const auto r = mech->EstimateBox(huge, w);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Unbiasedness of the marginal baseline (eq. 10) and its error's linear
// growth in the number of covered cells (eq. 11).
TEST(MgMechanismTest, UnbiasedAndErrorGrowsWithBox) {
  const double eps = 1.0;
  const uint64_t n = 3000;
  const Schema schema = TwoDimSchema(8, 8);
  std::vector<std::vector<uint32_t>> values(n);
  std::vector<double> weights(n);
  double truth_small = 0.0;
  double truth_large = 0.0;
  double m2_t = 0.0;
  Rng data_rng(2);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(8)),
                 static_cast<uint32_t>(data_rng.UniformInt(8))};
    weights[u] = 1.0 + static_cast<double>(u % 2);
    m2_t += weights[u] * weights[u];
    if (values[u][0] <= 1 && values[u][1] <= 1) truth_small += weights[u];
    if (values[u][0] <= 5 && values[u][1] <= 5) truth_large += weights[u];
  }
  const WeightVector w(weights);
  const std::vector<Interval> small_box = {{0, 1}, {0, 1}};   // 4 cells
  const std::vector<Interval> large_box = {{0, 5}, {0, 5}};   // 36 cells

  const int runs = 40;
  Rng rng(3);
  double sum_small = 0.0;
  double sum_large = 0.0;
  double mse_small = 0.0;
  double mse_large = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = MgMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const double es = mech->EstimateBox(small_box, w).ValueOrDie();
    const double el = mech->EstimateBox(large_box, w).ValueOrDie();
    sum_small += es;
    sum_large += el;
    mse_small += (es - truth_small) * (es - truth_small);
    mse_large += (el - truth_large) * (el - truth_large);
  }
  mse_small /= runs;
  mse_large /= runs;
  // Unbiased on both boxes.
  const double var_bound = MarginalBaselineVariance(eps, 36.0, m2_t);
  EXPECT_NEAR(sum_small / runs, truth_small,
              4.0 * std::sqrt(var_bound / runs));
  EXPECT_NEAR(sum_large / runs, truth_large,
              4.0 * std::sqrt(var_bound / runs));
  // Error grows roughly linearly with the cell count: 36/4 = 9x. Allow wide
  // statistical slack but demand a clear gap.
  EXPECT_GT(mse_large, mse_small * 2.0);
}

}  // namespace
}  // namespace ldp
