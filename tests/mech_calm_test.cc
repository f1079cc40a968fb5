#include "mech/calm.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mech/factory.h"

namespace ldp {
namespace {

Schema MakeSchema(std::vector<uint64_t> domains) {
  Schema schema;
  for (size_t i = 0; i < domains.size(); ++i) {
    std::string name = "d";
    name += std::to_string(i);
    EXPECT_TRUE(schema.AddOrdinal(name, domains[i]).ok());
  }
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps) {
  MechanismParams p;
  p.epsilon = eps;
  p.hash_pool_size = 0;
  return p;
}

TEST(CalmTest, MarginalOrderTracksDomainBudget) {
  // One dimension: nothing to pair, order 1.
  EXPECT_EQ(CalmMarginalOrder(MakeSchema({16})), 1);
  // Two moderate dimensions: 16*12 = 192 cells fits, order 2.
  EXPECT_EQ(CalmMarginalOrder(MakeSchema({16, 12})), 2);
  // Three small dimensions: 8^3 = 512 cells fits, order 3.
  EXPECT_EQ(CalmMarginalOrder(MakeSchema({8, 8, 8})), 3);
  // Three larger dimensions: 20^3 = 8000 blows the cell budget, 20^2 fits.
  EXPECT_EQ(CalmMarginalOrder(MakeSchema({20, 20, 20})), 2);
}

TEST(CalmTest, CreateValidatesAndLaysOutMarginals) {
  EXPECT_FALSE(CalmMechanism::Create(MakeSchema({16, 16}), Params(0.0)).ok());
  Schema no_sensitive;
  ASSERT_TRUE(no_sensitive.AddMeasure("w").ok());
  EXPECT_FALSE(CalmMechanism::Create(no_sensitive, Params(1.0)).ok());

  // Order 3 over three dims -> the single full marginal C(3,3) = 1.
  auto full = CalmMechanism::Create(MakeSchema({8, 8, 8}), Params(1.0))
                  .ValueOrDie();
  EXPECT_EQ(full->marginal_order(), 3);
  EXPECT_EQ(full->num_marginals(), 1);
  // Order 2 over three dims -> C(3,2) = 3 pair marginals.
  auto pairs = CalmMechanism::Create(MakeSchema({20, 20, 20}), Params(1.0))
                   .ValueOrDie();
  EXPECT_EQ(pairs->marginal_order(), 2);
  EXPECT_EQ(pairs->num_marginals(), 3);
  EXPECT_EQ(pairs->NumReportGroups(), 3u);
}

TEST(CalmTest, EncodePicksUniformMarginal) {
  auto mech = CalmMechanism::Create(MakeSchema({20, 20, 20}), Params(1.0))
                  .ValueOrDie();
  Rng rng(1);
  std::vector<int> counts(mech->num_marginals(), 0);
  const int trials = 6000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<uint32_t> values = {3, 7, 11};
    const LdpReport r = mech->EncodeUser(values, rng);
    ASSERT_EQ(r.entries.size(), 1u);
    ASSERT_LT(r.entries[0].group,
              static_cast<uint32_t>(mech->num_marginals()));
    ++counts[r.entries[0].group];
  }
  const double expected = static_cast<double>(trials) / counts.size();
  for (size_t m = 0; m < counts.size(); ++m) {
    EXPECT_NEAR(counts[m], expected, expected * 0.25) << "marginal " << m;
  }
}

TEST(CalmTest, ValidateRejectsMalformedReports) {
  auto mech =
      CalmMechanism::Create(MakeSchema({16, 12}), Params(1.0)).ValueOrDie();
  LdpReport bad_group;
  bad_group.entries.push_back({99, {}});
  EXPECT_FALSE(mech->AddReport(bad_group, 0).ok());
  LdpReport empty;
  EXPECT_FALSE(mech->AddReport(empty, 0).ok());
  Rng rng(2);
  LdpReport doubled = mech->EncodeUser(std::vector<uint32_t>{1, 2}, rng);
  doubled.entries.push_back(doubled.entries[0]);
  EXPECT_FALSE(mech->ValidateReport(doubled).ok());
}

TEST(CalmTest, UnbiasedOnCoveredBox) {
  // Both constrained dims sit inside the single pair marginal; cell
  // boundaries are exact, so the estimator must be unbiased.
  const double eps = 2.0;
  const uint64_t n = 4000;
  const Schema schema = MakeSchema({16, 12});
  std::vector<std::vector<uint32_t>> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  Rng data_rng(5);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(12))};
    weights[u] = 1.0 + static_cast<double>(u % 3);
    if (values[u][0] >= 3 && values[u][0] <= 12 && values[u][1] >= 5 &&
        values[u][1] <= 10) {
      truth += weights[u];
    }
  }
  const WeightVector w(weights);
  const std::vector<Interval> ranges = {{3, 12}, {5, 10}};
  const int runs = 40;
  Rng rng(6);
  double sum_est = 0.0;
  double mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = CalmMechanism::Create(schema, Params(eps)).ValueOrDie();
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

TEST(CalmTest, GreedyCoverHandlesMoreDimsThanOrder) {
  // Three constrained dims over an order-2 layout: no single marginal
  // covers the predicate, so the greedy cover multiplies per-factor
  // selectivities. On independent uniform data the product assumption holds,
  // so the estimate stays near the truth (loose band: two noisy factors).
  const uint64_t n = 6000;
  const Schema schema = MakeSchema({20, 20, 20});
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(7);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(20)),
                 static_cast<uint32_t>(data_rng.UniformInt(20)),
                 static_cast<uint32_t>(data_rng.UniformInt(20))};
    if (values[u][0] < 10 && values[u][1] < 10 && values[u][2] < 10) {
      truth += 1.0;
    }
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{0, 9}, {0, 9}, {0, 9}};
  const int runs = 25;
  Rng rng(8);
  double sum_est = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = CalmMechanism::Create(schema, Params(3.0)).ValueOrDie();
    ASSERT_EQ(mech->marginal_order(), 2);
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    sum_est += mech->EstimateBox(ranges, w).ValueOrDie();
  }
  EXPECT_NEAR(sum_est / runs, truth, 0.35 * truth + 0.05 * n);
}

TEST(CalmTest, EstimateBoxValidatesRanges) {
  auto mech =
      CalmMechanism::Create(MakeSchema({16, 12}), Params(1.0)).ValueOrDie();
  Rng rng(9);
  ASSERT_TRUE(
      mech->AddReport(mech->EncodeUser(std::vector<uint32_t>{0, 0}, rng), 0)
          .ok());
  const WeightVector w = WeightVector::Ones(1);
  const std::vector<Interval> one = {{0, 15}};
  EXPECT_FALSE(mech->EstimateBox(one, w).ok());
  const std::vector<Interval> oob = {{0, 16}, {0, 11}};
  EXPECT_FALSE(mech->EstimateBox(oob, w).ok());
}

TEST(CalmTest, FactoryBuildsIt) {
  auto mech =
      CreateMechanism(MechanismKind::kCalm, MakeSchema({16, 12}), Params(1.0));
  ASSERT_TRUE(mech.ok());
  EXPECT_EQ(mech.value()->kind(), MechanismKind::kCalm);
  EXPECT_EQ(MechanismKindFromString("calm").ValueOrDie(),
            MechanismKind::kCalm);
  EXPECT_EQ(MechanismKindName(MechanismKind::kCalm), "CALM");
}

}  // namespace
}  // namespace ldp
