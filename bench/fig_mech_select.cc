// Mechanism-selection validation: does the planner's per-query cost model
// pick the mechanism that is actually best on realistic workloads?
//
// Two multi-mechanism deployments, each over one user-partitioned report
// population:
//   * HDG vs HIO on a 2-D range workload (Yang et al.'s hybrid grids are
//     built for exactly this shape),
//   * CALM vs SC on a high-dimensional marginal workload (low-order
//     predicates over many small attributes).
//
// For every query template the bench records the planner's chosen mechanism
// (with the candidate variance scores behind it — the EXPLAIN surface) and
// the empirical RMSE of *every* registered candidate over `--runs` report
// collections. Writes BENCH_mech_select.json and exits non-zero when the
// chosen mechanism matches the lowest-empirical-error candidate in half or
// fewer of the templates — the acceptance bar for cost-model-driven
// selection.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mech/multi.h"

using namespace ldp;         // NOLINT
using namespace ldp::bench;  // NOLINT

namespace {

struct Template {
  std::string sql;
  /// The predicate's sensitive box, in Schema::sensitive_dims() order (the
  /// templates are single-box COUNTs, so the box is spelled out rather than
  /// re-derived from the rewriter).
  std::vector<Interval> ranges;
};

struct SuiteSpec {
  std::string name;
  std::vector<MechanismKind> kinds;
  TableSpec table;
  std::vector<Template> templates;
};

struct TemplateResult {
  std::string sql;
  MechanismKind chosen;
  MechanismKind best_empirical;
  std::vector<double> rmse;               // per registered kind
  std::vector<MechanismScore> candidates; // the planner's scores
};

SuiteSpec TwoDimRangeSuite() {
  SuiteSpec suite;
  suite.name = "2d-range-hdg-vs-hio";
  suite.kinds = {MechanismKind::kHio, MechanismKind::kHdg};
  suite.table.dims.push_back(
      {"x", AttributeKind::kSensitiveOrdinal, 64, ColumnDist::kUniform, 1.0});
  suite.table.dims.push_back(
      {"y", AttributeKind::kSensitiveOrdinal, 64, ColumnDist::kZipf, 1.1});
  suite.table.measures.push_back(
      {"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  suite.templates = {
      {"SELECT COUNT(*) FROM T WHERE x IN [0, 31] AND y IN [0, 31]",
       {{0, 31}, {0, 31}}},
      {"SELECT COUNT(*) FROM T WHERE x IN [5, 40] AND y IN [10, 50]",
       {{5, 40}, {10, 50}}},
      {"SELECT COUNT(*) FROM T WHERE x IN [20, 27] AND y IN [30, 37]",
       {{20, 27}, {30, 37}}},
      {"SELECT COUNT(*) FROM T WHERE x IN [0, 63] AND y IN [0, 15]",
       {{0, 63}, {0, 15}}},
      {"SELECT COUNT(*) FROM T WHERE x IN [3, 18] AND y IN [3, 18]",
       {{3, 18}, {3, 18}}},
      {"SELECT COUNT(*) FROM T WHERE x IN [8, 55] AND y IN [0, 63]",
       {{8, 55}, {0, 63}}},
  };
  return suite;
}

SuiteSpec HighDimMarginalSuite() {
  SuiteSpec suite;
  suite.name = "highdim-marginal-calm-vs-sc";
  suite.kinds = {MechanismKind::kSc, MechanismKind::kCalm};
  for (int i = 0; i < 6; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    suite.table.dims.push_back({name, AttributeKind::kSensitiveOrdinal, 8,
                                ColumnDist::kUniform, 1.0});
  }
  suite.table.measures.push_back(
      {"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  const Interval full{0, 7};
  suite.templates = {
      {"SELECT COUNT(*) FROM T WHERE d0 = 3 AND d1 IN [0, 3]",
       {{3, 3}, {0, 3}, full, full, full, full}},
      {"SELECT COUNT(*) FROM T WHERE d2 IN [2, 5] AND d4 IN [1, 4]",
       {full, full, {2, 5}, full, {1, 4}, full}},
      {"SELECT COUNT(*) FROM T WHERE d0 = 1 AND d3 = 2 AND d5 IN [0, 3]",
       {{1, 1}, full, full, {2, 2}, full, {0, 3}}},
      {"SELECT COUNT(*) FROM T WHERE d1 IN [0, 1] AND d2 IN [4, 7]",
       {full, {0, 1}, {4, 7}, full, full, full}},
      {"SELECT COUNT(*) FROM T WHERE d5 IN [2, 6]",
       {full, full, full, full, full, {2, 6}}},
      {"SELECT COUNT(*) FROM T WHERE d0 IN [0, 3] AND d4 = 5 AND d5 = 1",
       {{0, 3}, full, full, full, {5, 5}, {1, 1}}},
  };
  return suite;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string out_path = "BENCH_mech_select.json";
  int64_t runs = 3;
  FlagParser flags("fig_mech_select",
                   "planner mechanism choice vs empirical candidate error");
  flags.AddString("out", &out_path, "where to write the JSON summary");
  flags.AddInt64("runs", &runs, "report collections per suite (error average)");
  if (!ParseBenchConfig(argc, argv, "fig_mech_select",
                        "planner mechanism choice vs empirical candidate "
                        "error",
                        &config, &flags)) {
    return 1;
  }
  const int64_t n = ResolveN(config, 30000, 200000);
  PrintBanner("Mechanism selection: planner choice vs empirical error",
              "multi-mechanism planning (DESIGN.md sect. 13)", config,
              "n=" + std::to_string(n) + " runs=" + std::to_string(runs));

  std::vector<SuiteSpec> suites = {TwoDimRangeSuite(), HighDimMarginalSuite()};
  int matched = 0;
  int total = 0;
  std::ostringstream json;
  json << "{\"bench\":\"fig_mech_select\",\"n\":" << n
       << ",\"runs\":" << runs << ",\"eps\":" << config.eps
       << ",\"suites\":[";

  for (size_t s = 0; s < suites.size(); ++s) {
    const SuiteSpec& suite = suites[s];
    const Table table =
        GenerateTable(suite.table, static_cast<uint64_t>(n),
                      static_cast<uint64_t>(config.seed))
            .ValueOrDie();
    const WeightVector ones = WeightVector::Ones(table.num_rows());
    const size_t k = suite.kinds.size();

    std::vector<TemplateResult> results(suite.templates.size());
    std::vector<std::vector<double>> sq_err(
        suite.templates.size(), std::vector<double>(k, 0.0));

    for (int64_t run = 0; run < runs; ++run) {
      EngineOptions options;
      options.mechanisms = suite.kinds;
      options.params = MakeParams(config, config.eps);
      options.seed = static_cast<uint64_t>(config.seed + run);
      options.num_threads = static_cast<int>(config.threads);
      options.enable_estimate_cache = config.cache;
      const auto engine = AnalyticsEngine::Create(table, options).ValueOrDie();
      const auto* multi =
          dynamic_cast<const MultiMechanism*>(&engine->mechanism());
      if (multi == nullptr) {
        std::fprintf(stderr, "FATAL: engine did not build a MultiMechanism\n");
        return 1;
      }
      for (size_t t = 0; t < suite.templates.size(); ++t) {
        const Template& tmpl = suite.templates[t];
        const Query query =
            ParseQuery(table.schema(), tmpl.sql).ValueOrDie();
        const double truth = engine->ExecuteExact(query).ValueOrDie();
        if (run == 0) {
          const auto plan = engine->PlanFor(query).ValueOrDie();
          results[t].sql = tmpl.sql;
          results[t].chosen = plan->mechanism;
          results[t].candidates = plan->candidates;
          if (t == 0) {
            std::fprintf(stderr, "--- EXPLAIN (%s) ---\n%s\n",
                         suite.name.c_str(),
                         engine->Explain(query).ValueOrDie().c_str());
          }
        }
        for (size_t i = 0; i < k; ++i) {
          const double est =
              multi->EstimateBoxWith(suite.kinds[i], tmpl.ranges, ones)
                  .ValueOrDie();
          sq_err[t][i] += (est - truth) * (est - truth);
        }
      }
    }

    if (s > 0) json << ",";
    json << "{\"name\":\"" << suite.name << "\",\"kinds\":[";
    for (size_t i = 0; i < k; ++i) {
      json << (i ? "," : "") << "\"" << MechanismKindName(suite.kinds[i])
           << "\"";
    }
    json << "],\"templates\":[";
    for (size_t t = 0; t < results.size(); ++t) {
      TemplateResult& r = results[t];
      size_t best = 0;
      for (size_t i = 0; i < k; ++i) {
        r.rmse.push_back(std::sqrt(sq_err[t][i] / static_cast<double>(runs)));
        if (r.rmse[i] < r.rmse[best]) best = i;
      }
      r.best_empirical = suite.kinds[best];
      ++total;
      if (r.chosen == r.best_empirical) ++matched;

      json << (t ? "," : "") << "{\"sql\":\"" << r.sql << "\",\"chosen\":\""
           << MechanismKindName(r.chosen) << "\",\"best_empirical\":\""
           << MechanismKindName(r.best_empirical) << "\",\"rmse\":{";
      for (size_t i = 0; i < k; ++i) {
        json << (i ? "," : "") << "\"" << MechanismKindName(suite.kinds[i])
             << "\":" << r.rmse[i];
      }
      json << "},\"candidate_variance\":{";
      for (size_t i = 0; i < r.candidates.size(); ++i) {
        json << (i ? "," : "") << "\""
             << MechanismKindName(r.candidates[i].kind) << "\":"
             << (r.candidates[i].feasible
                     ? std::to_string(r.candidates[i].variance)
                     : std::string("\"infeasible\""));
      }
      json << "}}";
      std::printf("%-28s %-60s chosen=%-5s best=%-5s\n", suite.name.c_str(),
                  r.sql.c_str(), MechanismKindName(r.chosen).c_str(),
                  MechanismKindName(r.best_empirical).c_str());
    }
    json << "]}";
  }

  const double fraction =
      total == 0 ? 0.0 : static_cast<double>(matched) / total;
  json << "],\"matched\":" << matched << ",\"total\":" << total
       << ",\"matched_fraction\":" << fraction << "}\n";
  std::fputs(json.str().c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << json.str();
    if (out) std::fprintf(stderr, "summary written to %s\n", out_path.c_str());
  }
  if (fraction <= 0.5) {
    std::fprintf(stderr,
                 "FAIL: chosen mechanism matched the lowest-empirical-error "
                 "candidate in only %d/%d templates\n",
                 matched, total);
    return 1;
  }
  std::printf("matched %d/%d templates (%.0f%%)\n", matched, total,
              100.0 * fraction);
  return 0;
}
