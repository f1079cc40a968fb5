// Plan actuals recording: PlanStatsStore unit behavior (EWMA smoothing,
// bounded least-recently-recorded eviction), engine-level recording, the
// bit-identity contract (recording on/off, threads, caches), EXPLAIN's
// predicted-vs-actual block, the executor's per-plan variance dispatch, and
// the ComparePlanStats replay-regression report.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "mech/multi.h"
#include "obs/metrics.h"
#include "plan/stats_store.h"
#include "query/plan.h"

namespace ldp {
namespace {

Table SmallTable(uint64_t n = 2000, uint64_t seed = 77) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, seed).ValueOrDie();
}

struct FeedbackEngineConfig {
  std::vector<MechanismKind> mechanisms = {MechanismKind::kHio,
                                           MechanismKind::kMg};
  bool feedback = true;
  int threads = 1;
  bool estimate_cache = true;
  bool plan_cache = true;
};

std::unique_ptr<AnalyticsEngine> MakeEngine(const Table& table,
                                            const FeedbackEngineConfig& cfg) {
  EngineOptions options;
  options.mechanisms = cfg.mechanisms;
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.seed = 42;
  options.num_threads = cfg.threads;
  options.enable_estimate_cache = cfg.estimate_cache;
  options.enable_plan_cache = cfg.plan_cache;
  options.enable_feedback = cfg.feedback;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

std::vector<Query> Workload(const Schema& schema) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T WHERE a IN [2, 9]",
      "SELECT COUNT(*) FROM T WHERE a <= 5 OR b >= 10",
      "SELECT SUM(m) FROM T WHERE b IN [3, 12]",
      "SELECT AVG(m) FROM T WHERE a IN [1, 6] AND b IN [2, 13]",
  };
  std::vector<Query> queries;
  for (const char* sql : sqls) {
    queries.push_back(ParseQuery(schema, sql).ValueOrDie());
  }
  return queries;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string LineStartingWith(const std::string& text,
                             const std::string& prefix) {
  for (const auto& line : Lines(text)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

PlanIdentity Identity(uint64_t fingerprint, MechanismKind mechanism) {
  PlanIdentity id;
  id.fingerprint = fingerprint;
  id.mechanism = mechanism;
  return id;
}

PlanObservation Obs(uint64_t wall, uint64_t nodes, uint64_t calls = 1) {
  PlanObservation obs;
  obs.wall_nanos = wall;
  obs.estimate_calls = calls;
  obs.nodes_touched = nodes;
  return obs;
}

// --- PlanStatsStore units --------------------------------------------------

TEST(PlanStatsStoreTest, EwmaSeedsThenSmooths) {
  PlanStatsStore store(/*max_entries=*/16);
  const auto id = Identity(0xabc, MechanismKind::kHio);
  store.Record(id, Obs(100, 40, 2));
  auto stats = store.Lookup(0xabc);
  ASSERT_TRUE(stats.has_value());
  // The first observation seeds the EWMA exactly.
  EXPECT_EQ(stats->observations, 1u);
  EXPECT_DOUBLE_EQ(stats->ewma_wall_nanos, 100.0);
  EXPECT_DOUBLE_EQ(stats->ewma_nodes, 40.0);
  EXPECT_DOUBLE_EQ(stats->ewma_estimate_calls, 2.0);

  store.Record(id, Obs(200, 80, 4));
  stats = store.Lookup(0xabc);
  ASSERT_TRUE(stats.has_value());
  // ewma += alpha * (v - ewma) with alpha = 0.25.
  EXPECT_EQ(stats->observations, 2u);
  EXPECT_DOUBLE_EQ(stats->ewma_wall_nanos, 125.0);
  EXPECT_DOUBLE_EQ(stats->ewma_nodes, 50.0);
  EXPECT_DOUBLE_EQ(stats->ewma_estimate_calls, 2.5);
  EXPECT_EQ(stats->id.mechanism, MechanismKind::kHio);
}

TEST(PlanStatsStoreTest, EvictionBoundsEntriesLeastRecentlyRecordedFirst) {
  PlanStatsStore store(/*max_entries=*/2);
  store.Record(Identity(1, MechanismKind::kHio), Obs(100, 1));
  store.Record(Identity(2, MechanismKind::kHio), Obs(100, 1));
  store.Record(Identity(3, MechanismKind::kHio), Obs(100, 1));
  EXPECT_EQ(store.size(), 2u);
  // Fingerprint 1 was least recently recorded.
  EXPECT_FALSE(store.Lookup(1).has_value());
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_TRUE(store.Lookup(3).has_value());

  // Re-recording an existing fingerprint refreshes recency instead of
  // evicting it.
  store.Record(Identity(2, MechanismKind::kHio), Obs(100, 1));
  store.Record(Identity(4, MechanismKind::kHio), Obs(100, 1));
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_FALSE(store.Lookup(3).has_value());
}

TEST(PlanStatsStoreTest, SnapshotIsFingerprintSortedAndClearEmpties) {
  PlanStatsStore store(16);
  store.Record(Identity(30, MechanismKind::kHio), Obs(1, 1));
  store.Record(Identity(10, MechanismKind::kHio), Obs(1, 1));
  store.Record(Identity(20, MechanismKind::kHio), Obs(1, 1));
  const auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].id.fingerprint, 10u);
  EXPECT_EQ(snapshot[1].id.fingerprint, 20u);
  EXPECT_EQ(snapshot[2].id.fingerprint, 30u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Snapshot().empty());
  EXPECT_FALSE(store.Lookup(10).has_value());
}

// --- Replay regression detection -------------------------------------------

TEST(ReplayTest, FlagsArtificiallyInflatedFingerprint) {
  // Two recorded runs of the same two-plan workload; one plan's wall time is
  // inflated 3x in the current run — the report must name exactly it.
  PlanStatsStore baseline(16), current(16);
  const auto slow = Identity(0xdeadbeef, MechanismKind::kHio);
  const auto steady = Identity(0x42, MechanismKind::kMg);
  for (int i = 0; i < 3; ++i) {
    baseline.Record(slow, Obs(1000, 50));
    baseline.Record(steady, Obs(2000, 80));
    current.Record(slow, Obs(3000, 50));
    current.Record(steady, Obs(2000, 80));
  }

  const ReplayReport report = ComparePlanStats(baseline, current, 1.5);
  EXPECT_EQ(report.num_regressions, 1u);
  ASSERT_EQ(report.findings.size(), 2u);
  // Worst ratio first.
  EXPECT_EQ(report.findings[0].id.fingerprint, 0xdeadbeefu);
  EXPECT_TRUE(report.findings[0].regressed);
  EXPECT_DOUBLE_EQ(report.findings[0].ratio, 3.0);
  EXPECT_FALSE(report.findings[1].regressed);
  EXPECT_DOUBLE_EQ(report.findings[1].ratio, 1.0);
  EXPECT_TRUE(report.only_in_baseline.empty());
  EXPECT_TRUE(report.only_in_current.empty());

  // The renderings name the regressed fingerprint.
  EXPECT_NE(report.ToText().find("00000000deadbeef"), std::string::npos);
  EXPECT_NE(report.ToJson().find("00000000deadbeef"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"regressed\":true"), std::string::npos);
}

TEST(ReplayTest, DisjointFingerprintsAreReportedNotCompared) {
  PlanStatsStore baseline(16), current(16);
  baseline.Record(Identity(1, MechanismKind::kHio), Obs(100, 1));
  current.Record(Identity(2, MechanismKind::kHio), Obs(100, 1));
  const ReplayReport report = ComparePlanStats(baseline, current);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.num_regressions, 0u);
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_EQ(report.only_in_baseline[0], 1u);
  EXPECT_EQ(report.only_in_current[0], 2u);
}

// --- Engine recording and bit-identity -------------------------------------

TEST(FeedbackEngineTest, ExecuteRecordsObservationsIntoTheStore) {
  const Table table = SmallTable();
  FeedbackEngineConfig cfg;
  const auto engine = MakeEngine(table, cfg);
  ASSERT_NE(engine->plan_stats(), nullptr);
  const Query query = Workload(table.schema())[0];

  Counter* records = GlobalMetrics().counter("plan.feedback_records");
  const uint64_t before = records->value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine->Execute(query).ok());
  EXPECT_EQ(records->value() - before, 3u);

  const auto plan = engine->PlanFor(query).ValueOrDie();
  const auto stats = engine->plan_stats()->Lookup(plan->fingerprint);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->observations, 3u);
  EXPECT_GT(stats->ewma_nodes, 0.0);
  EXPECT_GT(stats->ewma_estimate_calls, 0.0);
  EXPECT_EQ(stats->id.mechanism, plan->mechanism);
  EXPECT_EQ(stats->id.strategy, plan->strategy);
}

TEST(FeedbackEngineTest, FeedbackOffLeavesTheStoreNull) {
  const Table table = SmallTable();
  FeedbackEngineConfig cfg;
  cfg.feedback = false;
  const auto engine = MakeEngine(table, cfg);
  EXPECT_EQ(engine->plan_stats(), nullptr);
}

TEST(FeedbackEngineTest, ResultsBitIdenticalAcrossThreadsAndCaches) {
  // The core contract: recording actuals must never perturb an answer.
  // Every (threads, cache) configuration executes the same plans and
  // returns the same bits.
  const Table table = SmallTable();
  const std::vector<Query> queries = Workload(table.schema());

  std::vector<double> golden;
  bool have_golden = false;
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {true, false}) {
      FeedbackEngineConfig cfg;
      cfg.threads = threads;
      cfg.estimate_cache = cache;
      const auto engine = MakeEngine(table, cfg);
      std::vector<double> answers;
      for (int rep = 0; rep < 3; ++rep) {  // reps run against a growing store
        for (const Query& q : queries) {
          answers.push_back(engine->Execute(q).ValueOrDie());
        }
      }
      // The batched path records per-plan observations too; its answers must
      // match its own sequential pass bit for bit.
      std::vector<double> batched(queries.size(), 0.0);
      ASSERT_TRUE(engine->ExecuteBatch(queries, batched).ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i], answers[i])
            << "batch diverged at query " << i << " threads=" << threads
            << " cache=" << cache;
      }
      if (!have_golden) {
        golden = answers;
        have_golden = true;
        continue;
      }
      ASSERT_EQ(answers.size(), golden.size());
      for (size_t i = 0; i < answers.size(); ++i) {
        EXPECT_EQ(answers[i], golden[i])
            << "answer " << i << " diverged at threads=" << threads
            << " cache=" << cache;
      }
    }
  }
}

TEST(FeedbackEngineTest, NodesTouchedInvariantToEstimateCache) {
  // The recorded work measure counts cache probes (hits + misses) when the
  // estimate cache is on and kernel-estimated nodes when it is off — the
  // same total either way, so recorded actuals compare across deployments
  // with different cache settings.
  const Table table = SmallTable();
  const Query query = Workload(table.schema())[0];

  FeedbackEngineConfig on, off;
  off.estimate_cache = false;
  const auto cached = MakeEngine(table, on);
  const auto uncached = MakeEngine(table, off);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cached->Execute(query).ok());
    ASSERT_TRUE(uncached->Execute(query).ok());
  }
  const auto plan = cached->PlanFor(query).ValueOrDie();
  const auto a = cached->plan_stats()->Lookup(plan->fingerprint);
  const auto b = uncached->plan_stats()->Lookup(plan->fingerprint);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->ewma_nodes, b->ewma_nodes);
  EXPECT_DOUBLE_EQ(a->ewma_estimate_calls, b->ewma_estimate_calls);
}

TEST(FeedbackEngineTest, FeedbackOnMatchesFeedbackOffBitForBit) {
  const Table table = SmallTable();
  const std::vector<Query> queries = Workload(table.schema());

  FeedbackEngineConfig off_cfg;
  off_cfg.feedback = false;
  const auto off = MakeEngine(table, off_cfg);
  const auto on = MakeEngine(table, FeedbackEngineConfig{});

  // Planning never reads the store, so the recording engine runs the same
  // plans as the non-recording one and its answers match exactly.
  for (int rep = 0; rep < 5; ++rep) {
    for (const Query& q : queries) {
      EXPECT_EQ(on->Execute(q).ValueOrDie(), off->Execute(q).ValueOrDie());
    }
  }
}

// --- EXPLAIN: predicted-vs-actual ------------------------------------------

TEST(FeedbackExplainTest, BlockAppearsAfterFirstExecution) {
  const Table table = SmallTable();
  // Plan cache on (the default): Explain and PlanFor overlay the live store
  // on the cached plan, so the block tracks every recorded execution.
  const auto engine = MakeEngine(table, FeedbackEngineConfig{});
  const Query query = Workload(table.schema())[0];

  // An unobserved plan renders exactly the recording-off text: no
  // "feedback:" block before the first execution.
  EXPECT_EQ(LineStartingWith(engine->Explain(query).ValueOrDie(), "feedback:"),
            "");
  EXPECT_EQ(engine->PlanFor(query).ValueOrDie()->feedback.observations, 0u);

  ASSERT_TRUE(engine->Execute(query).ok());
  std::string text = engine->Explain(query).ValueOrDie();
  EXPECT_EQ(LineStartingWith(text, "feedback:"), "feedback:");
  EXPECT_EQ(LineStartingWith(text, "  observations:"), "  observations: 1");
  // The block is the observation count plus three predicted-vs-actual rows.
  const std::vector<std::string> lines = Lines(text);
  const auto block = std::find(lines.begin(), lines.end(), "feedback:");
  ASSERT_LT(block + 4, lines.end());
  EXPECT_EQ(block[1].rfind("  observations:", 0), 0u) << block[1];
  EXPECT_EQ(block[2].rfind("  estimate_calls:", 0), 0u) << block[2];
  EXPECT_EQ(block[3].rfind("  node_estimates:", 0), 0u) << block[3];
  EXPECT_EQ(block[4].rfind("  wall_nanos:", 0), 0u) << block[4];

  ASSERT_TRUE(engine->Execute(query).ok());
  ASSERT_TRUE(engine->Execute(query).ok());
  text = engine->Explain(query).ValueOrDie();
  EXPECT_EQ(LineStartingWith(text, "  observations:"), "  observations: 3");
  // The deterministic predicted-vs-actual rows: predictions come from the
  // plan's cost annotations, actuals from the store's EWMA.
  const auto plan = engine->PlanFor(query).ValueOrDie();
  EXPECT_EQ(plan->feedback.observations, 3u);
  const auto stats = engine->plan_stats()->Lookup(plan->fingerprint);
  ASSERT_TRUE(stats.has_value());
  const std::string calls = LineStartingWith(text, "  estimate_calls:");
  EXPECT_NE(calls.find("predicted="), std::string::npos) << calls;
  EXPECT_NE(calls.find("actual~"), std::string::npos) << calls;
  const std::string nodes = LineStartingWith(text, "  node_estimates:");
  EXPECT_NE(
      nodes.find("predicted=" + std::to_string(plan->predicted_node_estimates)),
      std::string::npos)
      << nodes;
  EXPECT_NE(LineStartingWith(text, "  wall_nanos:").find("actual~"),
            std::string::npos);

  // The JSON rendering carries the same block.
  const std::string json = plan->ToJson(table.schema());
  EXPECT_NE(json.find("\"feedback\":{\"observations\":3,"
                      "\"predicted_estimate_calls\":"),
            std::string::npos);
}

TEST(FeedbackExplainTest, WarmedExplainIsGoldenTextPlusFeedbackBlock) {
  // Observation must not change anything else about the plan or its
  // rendering: stripping the feedback block from the observed EXPLAIN yields
  // the feedback-off engine's EXPLAIN verbatim — same fingerprint line
  // included, since the block is excluded from the fingerprint.
  const Table table = SmallTable();
  const auto on = MakeEngine(table, FeedbackEngineConfig{});
  FeedbackEngineConfig off_cfg;
  off_cfg.feedback = false;
  const auto off = MakeEngine(table, off_cfg);
  const Query query = Workload(table.schema())[1];

  ASSERT_TRUE(on->Execute(query).ok());
  const std::vector<std::string> off_lines =
      Lines(off->Explain(query).ValueOrDie());
  std::vector<std::string> on_lines = Lines(on->Explain(query).ValueOrDie());
  const auto block = std::find(on_lines.begin(), on_lines.end(), "feedback:");
  ASSERT_NE(block, on_lines.end());
  on_lines.erase(block, block + 5);  // "feedback:" + four detail rows
  EXPECT_EQ(on_lines, off_lines);

  EXPECT_EQ(on->PlanFor(query).ValueOrDie()->fingerprint,
            off->PlanFor(query).ValueOrDie()->fingerprint);
}

// --- Per-plan variance dispatch ---------------------------------------------

TEST(FeedbackOverrideTest, ExecuteWithBoundUsesThePlansMechanism) {
  // The RunWithBound regression: on a composite engine the variance bound
  // used to route through MultiMechanism::VarianceBound's own shape-based
  // sub selection, ignoring plan.mechanism — so a plan whose mechanism
  // differs from that selection would report an error bar for a mechanism
  // it never ran. Build such a plan by hand from the analytic one.
  const Table table = SmallTable();
  const auto engine = MakeEngine(table, FeedbackEngineConfig{});
  const Query query =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();

  const auto* multi =
      dynamic_cast<const MultiMechanism*>(&engine->mechanism());
  ASSERT_NE(multi, nullptr);

  const auto analytic = engine->PlanFor(query).ValueOrDie();
  ASSERT_EQ(analytic->candidates.size(), 2u);
  PhysicalPlan plan = *analytic;
  if (analytic->mechanism == MechanismKind::kHio) {
    plan.mechanism = MechanismKind::kMg;
    plan.strategy = PlanStrategy::kMgCellStream;
  } else {
    plan.mechanism = MechanismKind::kHio;
    plan.strategy = PlanStrategy::kDirectLevelGrid;
  }

  // COUNT with no public constraints weights every user 1.
  const WeightVector ones = WeightVector::Ones(table.num_rows());
  auto bound_sum = [&](MechanismKind kind) {
    double sum = 0.0;
    for (const auto& term : plan.logical.terms) {
      const double variance =
          multi->VarianceBoundWith(kind, term.sensitive, ones).ValueOrDie();
      sum += std::abs(term.coefficient) * std::sqrt(std::max(variance, 0.0));
    }
    return sum;
  };
  const double expected = bound_sum(plan.mechanism);
  const double other = bound_sum(analytic->mechanism);
  // The two candidates bound differently — otherwise dispatch is untestable.
  ASSERT_NE(expected, other);

  const ExecutionContext exec(1);
  const PlanExecutor executor(table, *multi, exec);
  const auto bounded = executor.RunWithBound(plan).ValueOrDie();
  EXPECT_DOUBLE_EQ(bounded.stddev, expected);

  // The engine's own entry point bounds the analytic plan's mechanism.
  EXPECT_DOUBLE_EQ(engine->ExecuteWithBound(query).ValueOrDie().stddev, other);
}

}  // namespace
}  // namespace ldp
