// The shard combiner for every mechanism: reports ingested into NewShard()
// shards and folded back with Merge must leave the mechanism bit-identical to
// ingesting the same reports directly, and every mechanism must reject
// malformed reports (wrong entry count, unowned or repeated group id) without
// counting them.

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mech/factory.h"
#include "mech/multi.h"

namespace ldp {
namespace {

struct MergeCase {
  std::string name;
  /// One kind builds that mechanism; several build a MultiMechanism.
  std::vector<MechanismKind> kinds;
  /// Ordinal sensitive domain sizes.
  std::vector<uint64_t> domains;
};

// Keeps ctest's discovered test names stable (gtest would otherwise print
// the struct's bytes, heap pointers included).
void PrintTo(const MergeCase& c, std::ostream* os) { *os << c.name; }

Schema MakeSchema(const std::vector<uint64_t>& domains) {
  Schema schema;
  for (size_t i = 0; i < domains.size(); ++i) {
    std::string name = "d";
    name += std::to_string(i);
    EXPECT_TRUE(schema.AddOrdinal(name, domains[i]).ok());
  }
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

std::unique_ptr<Mechanism> Make(const MergeCase& c) {
  MechanismParams params;
  params.epsilon = 2.0;
  const Schema schema = MakeSchema(c.domains);
  if (c.kinds.size() == 1) {
    return CreateMechanism(c.kinds[0], schema, params).ValueOrDie();
  }
  return MultiMechanism::Create(schema, params, c.kinds).ValueOrDie();
}

/// A few boxes per case: a narrow one, the full domain, a middle slab.
std::vector<std::vector<Interval>> Boxes(
    const std::vector<uint64_t>& domains) {
  std::vector<std::vector<Interval>> boxes(3);
  for (const uint64_t m : domains) {
    boxes[0].push_back({m / 8, m / 2});
    boxes[1].push_back({0, m - 1});
    boxes[2].push_back({m / 4, 3 * m / 4 - 1});
  }
  return boxes;
}

/// Every estimate the mechanism can give for `box`: EstimateBox, plus
/// EstimateBoxWith each registered kind on a composite.
std::vector<double> Estimates(const Mechanism& mech,
                              const std::vector<Interval>& box,
                              const WeightVector& w) {
  std::vector<double> out = {mech.EstimateBox(box, w).ValueOrDie()};
  if (const auto* multi = dynamic_cast<const MultiMechanism*>(&mech)) {
    for (const MechanismKind kind : multi->kinds()) {
      out.push_back(multi->EstimateBoxWith(kind, box, w).ValueOrDie());
    }
  }
  return out;
}

class MechMergeTest : public ::testing::TestWithParam<MergeCase> {
 protected:
  /// n users' reports, encoded once by a mechanism of the case's config.
  std::vector<LdpReport> EncodeReports(uint64_t n) const {
    const auto encoder = Make(GetParam());
    const std::vector<uint64_t>& domains = GetParam().domains;
    Rng rng(11);
    std::vector<LdpReport> reports;
    for (uint64_t u = 0; u < n; ++u) {
      std::vector<uint32_t> values;
      for (const uint64_t m : domains) {
        values.push_back(static_cast<uint32_t>(rng.UniformInt(m)));
      }
      reports.push_back(encoder->EncodeUser(values, rng));
    }
    return reports;
  }
};

TEST_P(MechMergeTest, ShardMergeMatchesDirectIngestBitwise) {
  const uint64_t n = 900;
  const std::vector<LdpReport> reports = EncodeReports(n);
  const auto direct = Make(GetParam());
  for (uint64_t u = 0; u < n; ++u) {
    ASSERT_TRUE(direct->AddReport(reports[u], u).ok());
  }
  // The merged mechanism ingests a first range itself, then folds in two
  // shards of uneven size: its own reports stay first, the shards follow in
  // merge order.
  const auto merged = Make(GetParam());
  auto shard_b = merged->NewShard().ValueOrDie();
  auto shard_c = merged->NewShard().ValueOrDie();
  const uint64_t b_begin = n / 3;
  const uint64_t c_begin = n / 2;
  for (uint64_t u = 0; u < n; ++u) {
    Mechanism& target =
        u < b_begin ? *merged : (u < c_begin ? *shard_b : *shard_c);
    ASSERT_TRUE(target.AddReport(reports[u], u).ok());
  }
  ASSERT_TRUE(merged->Merge(std::move(*shard_b)).ok());
  ASSERT_TRUE(merged->Merge(std::move(*shard_c)).ok());
  EXPECT_EQ(merged->num_reports(), n);
  EXPECT_EQ(merged->num_reports(), direct->num_reports());

  std::vector<double> weights(n);
  for (uint64_t u = 0; u < n; ++u) {
    weights[u] = 1.0 + static_cast<double>(u % 3);
  }
  const WeightVector w(std::move(weights));
  for (const auto& box : Boxes(GetParam().domains)) {
    const std::vector<double> want = Estimates(*direct, box, w);
    const std::vector<double> got = Estimates(*merged, box, w);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "box [" << box[0].lo << ", " << box[0].hi << "]: direct "
        << want[0] << " vs merged " << got[0];
  }
}

TEST_P(MechMergeTest, RejectsMalformedReportsWithoutCountingThem) {
  const std::vector<LdpReport> reports = EncodeReports(4);
  const auto mech = Make(GetParam());
  ASSERT_TRUE(mech->AddReport(reports[0], 0).ok());
  ASSERT_EQ(mech->num_reports(), 1u);

  // Wrong entry count: one entry too many, and no entries at all.
  LdpReport extra = reports[1];
  extra.entries.push_back(extra.entries[0]);
  LdpReport empty;
  // Unowned group id: exactly NumReportGroups(), one past the last group.
  LdpReport bad_group = reports[2];
  bad_group.entries[0].group =
      static_cast<uint32_t>(mech->NumReportGroups());

  for (const LdpReport* report : {&extra, &empty}) {
    EXPECT_EQ(mech->ValidateReport(*report).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(mech->AddReport(*report, 1).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(mech->ValidateReport(bad_group).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mech->AddReport(bad_group, 1).code(), StatusCode::kOutOfRange);
  // A report with an entry per group (HI, SC) must carry each group once: a
  // repeat that leaves another group out is rejected.
  if (reports[1].entries.size() > 1) {
    LdpReport repeated = reports[1];
    repeated.entries[1].group = repeated.entries[0].group;
    EXPECT_EQ(mech->ValidateReport(repeated).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(mech->AddReport(repeated, 1).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(mech->num_reports(), 1u);

  // The mechanism still accepts well-formed reports afterwards.
  EXPECT_TRUE(mech->ValidateReport(reports[3]).ok());
  ASSERT_TRUE(mech->AddReport(reports[3], 1).ok());
  EXPECT_EQ(mech->num_reports(), 2u);
}

TEST_P(MechMergeTest, MergeRejectsAShardOfAnotherKind) {
  const auto mech = Make(GetParam());
  // MG over the same schema is a different kind for every case but MG
  // itself; HIO stands in there.
  const MechanismKind other = GetParam().kinds[0] == MechanismKind::kMg
                                  ? MechanismKind::kHio
                                  : MechanismKind::kMg;
  MechanismParams params;
  params.epsilon = 2.0;
  auto shard = CreateMechanism(other, MakeSchema(GetParam().domains), params)
                   .ValueOrDie();
  EXPECT_EQ(mech->Merge(std::move(*shard)).code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MechMergeTest,
    ::testing::Values(
        MergeCase{"HI", {MechanismKind::kHi}, {16, 16}},
        MergeCase{"HIO", {MechanismKind::kHio}, {16, 16}},
        MergeCase{"SC", {MechanismKind::kSc}, {16, 16}},
        MergeCase{"MG", {MechanismKind::kMg}, {16, 16}},
        MergeCase{"QuadTree", {MechanismKind::kQuadTree}, {16, 16}},
        MergeCase{"Haar", {MechanismKind::kHaar}, {64}},
        MergeCase{"HDG", {MechanismKind::kHdg}, {16, 16}},
        MergeCase{"CALM", {MechanismKind::kCalm}, {16, 12}},
        MergeCase{"HIO_HDG",
                  {MechanismKind::kHio, MechanismKind::kHdg},
                  {16, 16}}),
    [](const ::testing::TestParamInfo<MergeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ldp
