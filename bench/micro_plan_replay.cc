// Plan-regression replay harness: runs the same templated workload on two
// recording engines ("baseline" and "current"), compares their
// per-fingerprint recorded actuals with ComparePlanStats, and then proves
// the detector works by replaying the comparison against a synthetically
// inflated copy of the current store — the report must flag exactly the
// inflated fingerprint.
//
// Writes a JSON summary to --out (default: BENCH_replay.json) and prints
// both replay reports to stdout. Exits non-zero when the synthetic
// regression is NOT detected (the harness itself would be broken); a live
// regression past --threshold between the two identical runs only warns.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "plan/stats_store.h"

using namespace ldp;         // NOLINT
using namespace ldp::bench;  // NOLINT

namespace {

/// The micro_plan_overhead workload: 8 templated shapes over the census
/// table, instantiated `reps` times — repeated shapes give each recorded
/// fingerprint several observations to smooth.
std::vector<Query> TemplatedWorkload(const Schema& schema, int reps) {
  const char* templates[] = {
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT SUM(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT AVG(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT COUNT(*) FROM T WHERE income BETWEEN 10 AND 40",
      "SELECT COUNT(*) FROM T WHERE age <= 20 OR income >= 30",
      "SELECT SUM(weekly_work_hour) FROM T WHERE age <= 20 OR income >= 30",
      "SELECT AVG(weekly_work_hour) FROM T WHERE marital_status = 1",
      "SELECT STDEV(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
  };
  std::vector<Query> queries;
  for (int r = 0; r < reps; ++r) {
    for (const char* sql : templates) {
      queries.push_back(ParseQuery(schema, sql).ValueOrDie());
    }
  }
  return queries;
}

std::unique_ptr<AnalyticsEngine> MakeFeedbackEngine(const Table& table,
                                                    const BenchConfig& config) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params = MakeParams(config, config.eps);
  options.seed = static_cast<uint64_t>(config.seed);
  options.num_threads = static_cast<int>(config.threads);
  options.enable_estimate_cache = config.cache;
  options.enable_feedback = true;  // records the actuals the replay diffs
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

/// Runs the workload and returns the engine's recorded store snapshot size,
/// asserting answers match `golden` (filled on the first run) bit for bit.
bool RunWorkload(const AnalyticsEngine& engine,
                 const std::vector<Query>& queries,
                 std::vector<double>* golden) {
  std::vector<double> answers(queries.size(), 0.0);
  if (!engine.ExecuteBatch(queries, answers).ok()) return false;
  if (golden->empty()) {
    *golden = answers;
    return true;
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] != (*golden)[i]) {
      std::fprintf(stderr, "FATAL: runs diverged at query %zu\n", i);
      return false;
    }
  }
  return true;
}

/// Re-seeds `out` with one observation per entry of `src`'s snapshot,
/// multiplying the wall time of `inflate_fingerprint` by `factor` — the
/// synthetic regression the detector must catch.
void CopyInflated(const PlanStatsStore& src, uint64_t inflate_fingerprint,
                  double factor, PlanStatsStore* out) {
  for (const PlanStats& stats : src.Snapshot()) {
    const double scale =
        stats.id.fingerprint == inflate_fingerprint ? factor : 1.0;
    PlanObservation obs;
    obs.wall_nanos = static_cast<uint64_t>(stats.ewma_wall_nanos * scale);
    obs.estimate_calls = static_cast<uint64_t>(stats.ewma_estimate_calls);
    obs.nodes_touched = static_cast<uint64_t>(stats.ewma_nodes);
    out->Record(stats.id, obs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string out_path = "BENCH_replay.json";
  double threshold = 1.5;
  int64_t reps = 4;
  FlagParser flags("micro_plan_replay",
                   "plan-regression replay over two recorded runs");
  flags.AddString("out", &out_path, "where to write the JSON summary");
  flags.AddDouble("threshold", &threshold,
                  "wall-time ratio above which a plan counts as regressed");
  flags.AddInt64("reps", &reps, "workload repetitions per engine");
  if (!ParseBenchConfig(argc, argv, "micro_plan_replay",
                        "plan-regression replay over two recorded runs",
                        &config, &flags)) {
    return 1;
  }
  const int64_t n = ResolveN(config, 50000, 500000);
  PrintBanner("Micro: plan-regression replay",
              "plan stats store (feedback/EXPLAIN subsystem)", config,
              "n=" + std::to_string(n) +
                  " threshold=" + std::to_string(threshold));

  const Table table = MakeIpums4D(static_cast<uint64_t>(n), 54, config.seed);
  const std::vector<Query> queries =
      TemplatedWorkload(table.schema(), static_cast<int>(reps));

  // --- Two identically configured runs: the live comparison's expected
  // outcome is "no regression" (wall jitter stays under any sane threshold).
  const auto baseline = MakeFeedbackEngine(table, config);
  const auto current = MakeFeedbackEngine(table, config);
  std::vector<double> golden;
  if (!RunWorkload(*baseline, queries, &golden) ||
      !RunWorkload(*current, queries, &golden)) {
    return 1;
  }
  const ReplayReport live = ComparePlanStats(*baseline->plan_stats(),
                                             *current->plan_stats(), threshold);
  std::fputs("--- live replay (baseline vs current) ---\n", stdout);
  std::fputs(live.ToText().c_str(), stdout);

  // --- Synthetic regression: inflate one fingerprint's wall 10x in a copy
  // of the BASELINE store (so every other entry compares at ratio exactly
  // 1.0, free of timing jitter); the detector must name exactly the victim.
  const auto snapshot = baseline->plan_stats()->Snapshot();
  if (snapshot.empty()) {
    std::fprintf(stderr, "FATAL: no plans recorded\n");
    return 1;
  }
  const uint64_t victim = snapshot.front().id.fingerprint;
  PlanStatsStore inflated(baseline->plan_stats()->max_entries());
  CopyInflated(*baseline->plan_stats(), victim, 10.0, &inflated);
  const ReplayReport synthetic =
      ComparePlanStats(*baseline->plan_stats(), inflated, threshold);
  std::fputs("--- synthetic replay (10x inflated fingerprint) ---\n", stdout);
  std::fputs(synthetic.ToText().c_str(), stdout);

  const bool detected =
      synthetic.num_regressions == 1 && !synthetic.findings.empty() &&
      synthetic.findings.front().regressed &&
      synthetic.findings.front().id.fingerprint == victim;

  char victim_hex[32];
  std::snprintf(victim_hex, sizeof(victim_hex), "%016llx",
                static_cast<unsigned long long>(victim));
  std::string json = "{\"bench\":\"micro_plan_replay\",\"n\":" +
                     std::to_string(n) +
                     ",\"queries\":" + std::to_string(queries.size()) +
                     ",\"threshold\":" + std::to_string(threshold) +
                     ",\"live\":" + live.ToJson() +
                     ",\"synthetic\":" + synthetic.ToJson() +
                     ",\"inflated_fingerprint\":\"" + victim_hex +
                     "\",\"synthetic_detected\":" +
                     (detected ? "true" : "false") + "}\n";
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << json;
    if (out) std::fprintf(stderr, "summary written to %s\n", out_path.c_str());
  }

  if (!detected) {
    std::fprintf(stderr,
                 "FATAL: synthetic 10x regression on %s was not detected\n",
                 victim_hex);
    return 1;
  }
  if (live.num_regressions != 0) {
    // Identical configs in one process: any live "regression" is wall-clock
    // jitter on a microsecond-scale plan, not a plan change. Surface it but
    // do not fail — the synthetic check above is the harness's hard gate.
    std::fprintf(stderr,
                 "WARNING: %zu live regression(s) between identical runs "
                 "(wall jitter; raise --threshold to silence)\n",
                 live.num_regressions);
  }
  return 0;
}
