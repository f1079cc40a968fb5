// Block-split OLH raw scans. An unpooled OLH group's per-value sum is the
// block-order sum of per-block partials over fixed kEstimateReportBlock-report
// blocks (FoldBlockPartial). These tests
//  * pin that rule against a hand-written sum of scalar-kernel partials,
//  * check EstimateNodesBatched reproduces the serial EstimateManyWeighted /
//    EstimateWeighted bits at every thread count, SIMD level and cache state,
//  * check a cached group weight goes stale when reports arrive.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/execution_context.h"
#include "fo/olh.h"
#include "fo/simd/simd.h"
#include "mech/estimate_cache.h"

namespace ldp {
namespace {

constexpr uint64_t kDomain = 1024;
/// Three full blocks and a 17-report tail.
constexpr uint64_t kReports = 3 * kEstimateReportBlock + 17;

void ExpectSameBits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << ": " << got << " vs " << want;
}

/// Non-dyadic weights of mixed sign, so the summation order shows in the
/// bits of the result.
std::vector<double> IrregularWeights(uint64_t n) {
  std::vector<double> w(n);
  for (uint64_t i = 0; i < n; ++i) {
    w[i] = 0.1 * static_cast<double>(i % 13) - 0.35;
  }
  return w;
}

/// One unpooled OLH group; user u sends reports[u].
struct Group {
  ReportStore store;
  std::vector<FoReport> reports;

  const OlhProtocol& protocol() const {
    return static_cast<const OlhProtocol&>(store.oracle(0));
  }
  const FoAccumulator& acc() const { return store.accumulator(0); }

  /// Encodes and adds the reports of users [reports.size(), n).
  void AddUpTo(uint64_t n, Rng& rng) {
    for (uint64_t u = reports.size(); u < n; ++u) {
      reports.push_back(store.Encode(0, (u * 7) % kDomain, rng));
      store.Add(0, reports.back(), u);
    }
  }
};

std::unique_ptr<Group> MakeGroup(uint64_t n) {
  auto group = std::make_unique<Group>();
  group->store.AddGroup(
      FrequencyOracle::Create(FoKind::kOlh, 1.0, kDomain, 0).ValueOrDie());
  Rng rng(31);
  group->AddUpTo(n, rng);
  return group;
}

/// 300 values (two 256-value fan-out tiles), one of them repeated.
std::vector<uint64_t> QueryValues() {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 299; ++v) values.push_back((v * 3) % kDomain);
  values.push_back(6);
  return values;
}

/// The scalar reference kernel over [begin, begin + len) of the reports.
std::vector<double> ScalarPartial(const Group& group,
                                  const std::vector<double>& weights,
                                  const std::vector<uint64_t>& values,
                                  size_t begin, size_t len) {
  std::vector<uint32_t> seeds, ys;
  std::vector<uint64_t> users;
  for (size_t i = begin; i < begin + len; ++i) {
    seeds.push_back(group.reports[i].seed);
    ys.push_back(group.reports[i].value);
    users.push_back(i);
  }
  std::vector<double> partial(values.size(), 0.0);
  KernelsForLevel(SimdLevel::kScalar)
      .olh_raw(seeds.data(), ys.data(), users.data(), len, weights.data(),
               group.protocol().g(), values.data(), values.size(),
               partial.data());
  return partial;
}

/// Prop. 4's estimate with theta summed by `block_reports`-report blocks
/// in block order (block_reports >= n gives the plain report order).
std::vector<double> HandWrittenEstimate(const Group& group,
                                        const std::vector<double>& weights,
                                        const std::vector<uint64_t>& values,
                                        size_t block_reports) {
  const size_t n = group.reports.size();
  std::vector<double> theta(values.size(), 0.0);
  for (size_t begin = 0; begin < n; begin += block_reports) {
    const std::vector<double> partial = ScalarPartial(
        group, weights, values, begin, std::min(block_reports, n - begin));
    for (size_t v = 0; v < values.size(); ++v) {
      theta[v] = begin == 0 ? partial[v] : theta[v] + partial[v];
    }
  }
  double group_weight = 0.0;
  for (size_t i = 0; i < n; ++i) group_weight += weights[i];
  const OlhProtocol& proto = group.protocol();
  for (double& t : theta) t = proto.scale() * (t - group_weight / proto.g());
  return theta;
}

TEST(EstimateBlockTest, BlockOrderIsPinned) {
  const auto group = MakeGroup(kReports);
  ASSERT_EQ(group->acc().EstimateBlocks(), 4u);
  const std::vector<uint64_t> values = QueryValues();
  for (const bool ones : {false, true}) {
    const std::vector<double> weights = ones
                                            ? std::vector<double>(kReports, 1.0)
                                            : IrregularWeights(kReports);
    const WeightVector w(weights);
    EXPECT_EQ(w.all_ones(), ones);
    const std::vector<double> want =
        HandWrittenEstimate(*group, weights, values, kEstimateReportBlock);
    std::vector<double> many(values.size());
    group->acc().EstimateManyWeighted(values, w, many);
    for (size_t v = 0; v < values.size(); ++v) {
      const std::string what = std::string(ones ? "ones" : "irregular") +
                               " value " + std::to_string(values[v]);
      ExpectSameBits(many[v], want[v], "EstimateManyWeighted " + what);
      ExpectSameBits(group->acc().EstimateWeighted(values[v], w), want[v],
                     "EstimateWeighted " + what);
    }
    if (!ones) {
      // The data is chosen so the rule is visible: the plain report-order
      // sum differs in at least one value's bits.
      const std::vector<double> report_order =
          HandWrittenEstimate(*group, weights, values, kReports);
      size_t differing = 0;
      for (size_t v = 0; v < values.size(); ++v) {
        differing +=
            std::memcmp(&report_order[v], &want[v], sizeof(double)) != 0;
      }
      EXPECT_GT(differing, 0u);
    }
  }
}

TEST(EstimateBlockTest, BatchedMatchesSerialAcrossThreadsLevelsAndCache) {
  const auto group = MakeGroup(kReports);
  const std::vector<uint64_t> values = QueryValues();
  std::vector<NodeRef> nodes;
  for (const uint64_t v : values) nodes.push_back({0, v});
  for (const bool ones : {false, true}) {
    const WeightVector w = ones ? WeightVector::Ones(kReports)
                                : WeightVector(IrregularWeights(kReports));
    SetSimdLevel(SimdLevel::kScalar);
    std::vector<double> many(values.size());
    group->acc().EstimateManyWeighted(values, w, many);
    for (const SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevel(level);
      for (const int threads : {1, 4}) {
        const ExecutionContext exec(threads);
        for (const bool use_cache : {false, true}) {
          EstimateCache cache(1 << 20);
          // With the cache on, the second round is served from it.
          for (int round = 0; round < (use_cache ? 2 : 1); ++round) {
            std::vector<double> out(nodes.size(), -1.0);
            EstimateNodesBatched(group->store, nodes, w, kReports,
                                 use_cache ? &cache : nullptr, exec, out);
            for (size_t i = 0; i < nodes.size(); ++i) {
              const std::string what =
                  SimdLevelName(level) + " threads " +
                  std::to_string(threads) + (use_cache ? " cache" : "") +
                  " round " + std::to_string(round) +
                  (ones ? " ones" : " irregular") + " node " +
                  std::to_string(i);
              ExpectSameBits(out[i], many[i], "vs EstimateManyWeighted " +
                                                  what);
              ExpectSameBits(out[i],
                             group->acc().EstimateWeighted(values[i], w),
                             "vs EstimateWeighted " + what);
            }
          }
          if (use_cache) {
            EXPECT_EQ(cache.stats().hits, nodes.size());
          }
        }
      }
    }
  }
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(EstimateBlockTest, AddAfterEstimateDropsCachedGroupWeight) {
  // Start inside one block, estimate (caching the group weight), then grow
  // the group to four blocks: every later estimate must equal a fresh group
  // built with all the reports.
  const std::vector<uint64_t> values = QueryValues();
  std::vector<NodeRef> nodes;
  for (const uint64_t v : values) nodes.push_back({0, v});
  const WeightVector irregular(IrregularWeights(kReports));
  const WeightVector ones = WeightVector::Ones(kReports);
  const auto fresh = MakeGroup(kReports);

  auto group = std::make_unique<Group>();
  group->store.AddGroup(
      FrequencyOracle::Create(FoKind::kOlh, 1.0, kDomain, 0).ValueOrDie());
  Rng rng(31);
  group->AddUpTo(kEstimateReportBlock - 96, rng);
  const ExecutionContext exec(4);
  EstimateCache cache(1 << 20);
  for (const WeightVector* w : {&irregular, &ones}) {
    std::vector<double> out(nodes.size());
    EstimateNodesBatched(group->store, nodes, *w, group->reports.size(),
                         &cache, exec, out);
    (void)group->acc().GroupWeight(*w);
  }
  group->AddUpTo(kReports, rng);
  ASSERT_EQ(group->acc().EstimateBlocks(), fresh->acc().EstimateBlocks());

  for (const WeightVector* w : {&irregular, &ones}) {
    const std::string what = w->all_ones() ? "ones" : "irregular";
    ExpectSameBits(group->acc().GroupWeight(*w), fresh->acc().GroupWeight(*w),
                   "group weight " + what);
    std::vector<double> want(values.size());
    fresh->acc().EstimateManyWeighted(values, *w, want);
    std::vector<double> many(values.size());
    group->acc().EstimateManyWeighted(values, *w, many);
    std::vector<double> batched(nodes.size());
    EstimateNodesBatched(group->store, nodes, *w, kReports, &cache, exec,
                         batched);
    for (size_t v = 0; v < values.size(); ++v) {
      ExpectSameBits(many[v], want[v], "EstimateManyWeighted " + what);
      ExpectSameBits(batched[v], want[v], "EstimateNodesBatched " + what);
    }
  }
}

}  // namespace
}  // namespace ldp
