#ifndef LDPMDA_ENGINE_ENGINE_H_
#define LDPMDA_ENGINE_ENGINE_H_

#include <memory>
#include <span>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "data/table.h"
#include "exec/execution_context.h"
#include "fo/simd/simd.h"
#include "mech/factory.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "plan/stats_store.h"
#include "query/exact.h"
#include "query/parser.h"

namespace ldp {

/// Configuration of a private-analytics deployment (Figure 1).
struct EngineOptions {
  MechanismKind mechanism = MechanismKind::kHio;
  /// Multi-mechanism deployment: when non-empty this OVERRIDES `mechanism`
  /// and registers every listed kind with one engine. With two or more
  /// kinds the population is user-partitioned across them (each simulated
  /// client spends its full eps on one uniformly drawn mechanism — see
  /// MultiMechanism) and the planner scores every registered candidate per
  /// query, executing each plan with the analytically best one. A single
  /// entry is identical to setting `mechanism`. Duplicates are rejected.
  std::vector<MechanismKind> mechanisms;
  MechanismParams params;
  /// Seed for the simulated clients' randomness.
  uint64_t seed = 42;
  /// Shard-parallel workers for collection (encode + ingest) and estimation.
  /// <= 0 means one per hardware thread. Estimates are bit-identical for any
  /// value: encoding uses fixed per-chunk RNG substreams and estimation uses
  /// fixed-chunk ordered reductions, so only wall-clock time changes.
  int num_threads = 1;
  /// Cross-query node-estimate cache (see EstimateCache): repeated or
  /// overlapping queries reuse per-node estimates instead of re-scanning
  /// reports. Purely a performance knob — estimates are bit-identical with
  /// the cache on or off — so it defaults to on.
  bool enable_estimate_cache = true;
  /// Byte budget for the node-estimate cache.
  size_t estimate_cache_bytes = 32ull << 20;  // 32 MiB
  /// Process-wide observability (GlobalMetrics counters/histograms). Purely
  /// diagnostic: metrics never feed back into estimation, so results are
  /// bit-identical with metrics on or off. Off leaves the hot paths with a
  /// single relaxed atomic-bool test per would-be increment.
  bool enable_metrics = true;
  /// Physical-plan cache (see PlanCache): a repeated query skips
  /// validate + rewrite + plan, a repeated SQL string additionally skips the
  /// parse. Plans are immutable and execution replays them exactly, so
  /// results are bit-identical with the cache on or off.
  bool enable_plan_cache = true;
  /// Entry budget for the plan cache (plans are small; this bounds the
  /// number of distinct query shapes kept hot).
  size_t plan_cache_entries = 256;
  /// Opt-in consistency-corrected strategy (least-squares consistent HIO
  /// tree) for qualifying deployments — see PlannerOptions. Changes answers
  /// (that is its point), hence off by default.
  bool planner_consistency = false;
  /// Plan actuals recording (see PlanStatsStore): every Execute (each
  /// ExecuteBatch query included) records the executed plan's measured
  /// actuals, and EXPLAIN/PlanFor render them as a predicted-vs-actual block. Record-only — planning
  /// never reads the store, so plans and answers are identical with it on
  /// or off. Off by default: recording profiles every execution.
  bool enable_feedback = false;
  /// Instruction-set level for the frequency-oracle estimate kernels
  /// (src/fo/simd/). kAuto picks the best supported level at Create();
  /// forcing a level the host does not support is LDP_CHECK-fatal. Purely a
  /// performance knob — every level is bit-identical (see FoKernels).
  /// Process-wide, like enable_metrics: the last engine created wins.
  SimdLevel simd_level = SimdLevel::kAuto;
};

/// End-to-end private MDA pipeline over one fact table (Section 2.3).
///
/// Create() simulates the collection phase: every row of `table` plays a
/// client, encodes its sensitive dimensions with the chosen mechanism's
/// eps-LDP encoder, and sends the report to the (in-process) server. The
/// server additionally knows the public columns (measures and non-sensitive
/// dimensions). Execute() then answers arbitrary MDA queries from the
/// reports alone:
///   * AND-OR predicates via DNF + inclusion–exclusion (Section 7),
///   * public-dimension constraints evaluated exactly and folded into the
///     per-user weights (Section 7),
///   * COUNT/SUM natively; AVG and STDEV as ratios of estimates (Section 7).
///
/// Query answering is staged through an explicit plan pipeline:
/// parse -> logical plan (BuildLogicalPlan: validate + rewrite) -> physical
/// plan (Planner: strategy + ops + cost annotations) -> PlanExecutor. The
/// engine's Execute* methods are thin wrappers that obtain a (usually
/// cached) plan and run it; Explain* render the plan instead of running it.
///
/// The engine keeps a reference to `table`: the sensitive columns are read
/// only during the simulated collection; estimation touches only reports and
/// public columns.
class AnalyticsEngine {
 public:
  static Result<std::unique_ptr<AnalyticsEngine>> Create(
      const Table& table, const EngineOptions& options);

  /// Estimated answer P̄(q) to the MDA query. When `profile` is non-null the
  /// query's stage timings (rewrite / plan / fan-out / estimate / aggregate)
  /// and work counters (inclusion-exclusion terms, nodes estimated,
  /// estimate-cache hits/misses/epoch-drops, execution chunks) are
  /// ACCUMULATED into it — pass a zeroed profile for one query, or reuse one
  /// to aggregate a workload. Work counters are attributed by differencing
  /// engine-level stats around the query, so profiled queries on the same
  /// engine should not run concurrently (results are still correct; only the
  /// attribution would blur). Profiling is independent of
  /// EngineOptions::enable_metrics and never changes the estimate.
  Result<double> Execute(const Query& query,
                         QueryProfile* profile = nullptr) const;

  /// An estimate together with a conservative standard-deviation bound
  /// derived from the mechanism's closed-form error analysis
  /// (Mechanism::VarianceBound applied to the query's rewritten boxes).
  struct BoundedEstimate {
    double estimate = 0.0;
    double stddev = 0.0;
  };

  /// Like Execute, with an error bar. Supported for the linear aggregates
  /// COUNT and SUM (AVG/STDEV are ratios of estimates; their error depends
  /// on the data in a way no closed form in the paper covers). Shares the
  /// cached plan with Execute — the query is validated and rewritten once,
  /// not once per entry point.
  Result<BoundedEstimate> ExecuteWithBound(const Query& query) const;

  /// Parses and executes a SQL string. `profile` additionally captures the
  /// parse stage; see Execute for the accumulation contract. With the plan
  /// cache on, a repeated SQL string skips the parse via the cache's SQL
  /// side index.
  Result<double> ExecuteSql(std::string_view sql,
                            QueryProfile* profile = nullptr) const;

  /// Answers a workload: out[i] receives Execute(queries[i], profile), run
  /// in order, stopping at the first error. Repeated or overlapping queries
  /// reuse node estimates through the estimate cache, so answers are
  /// bit-identical to sequential Execute. Counted in `plan.batch_queries`.
  /// Requires out.size() >= queries.size().
  Status ExecuteBatch(std::span<const Query> queries, std::span<double> out,
                      QueryProfile* profile = nullptr) const;

  /// Stable, human-readable rendering of the physical plan the engine would
  /// execute for `query` (strategy, op list, cost annotations) — the
  /// EXPLAIN surface. Does not touch the reports.
  Result<std::string> Explain(const Query& query) const;
  /// Explain for a SQL string; accepts both "SELECT ..." and
  /// "EXPLAIN SELECT ...".
  Result<std::string> ExplainSql(std::string_view sql) const;
  /// The plan itself, for programmatic consumers (ToJson, tests). Carries
  /// the live recorded actuals when recording is on, like Explain.
  Result<std::shared_ptr<const PhysicalPlan>> PlanFor(
      const Query& query) const;

  /// Exact (non-private) answer — ground truth for error reporting.
  Result<double> ExecuteExact(const Query& query) const {
    return ExactAnswer(table_, query);
  }

  const Table& table() const { return table_; }
  const Mechanism& mechanism() const { return *mechanism_; }
  const Schema& schema() const { return table_.schema(); }
  /// The plan cache, or null when disabled.
  PlanCache* plan_cache() const { return plan_cache_.get(); }
  /// The plan actuals store, or null unless EngineOptions::enable_feedback
  /// is set. Exposed for tests and the replay harness (ComparePlanStats over
  /// two engines' stores).
  PlanStatsStore* plan_stats() const { return plan_stats_.get(); }

  /// Sum over rows of |expr| for the query's aggregate — the MNAE
  /// normalizer Sigma_S (Section 6, error measures). COUNT uses n.
  double AbsWeightTotal(const Query& query) const;

 private:
  AnalyticsEngine(const Table& table, const EngineOptions& options)
      : table_(table), options_(options) {}

  /// The cached-or-planned physical plan for `query` at the current report
  /// epoch. kPlan spans cover the cache probe and the planner; kRewrite
  /// covers BuildLogicalPlan on a miss.
  Result<std::shared_ptr<const PhysicalPlan>> GetPlan(
      const Query& query, QueryProfile* profile) const;

  /// Shared Execute body: resolves the plan (when `query` is non-null; a
  /// pre-resolved `plan` otherwise), runs it under a profiled scope, and —
  /// when recording is on — records the measured PlanObservation into
  /// plan_stats_.
  Result<double> ExecuteRecorded(const Query* query,
                                 std::shared_ptr<const PhysicalPlan> plan,
                                 QueryProfile* profile) const;

  /// Copies `plan` with its feedback block filled from the live stats
  /// store — the one place the block is filled, so Explain and PlanFor show
  /// every execution recorded so far, cached plan or not.
  PhysicalPlan WithLiveFeedback(const PhysicalPlan& plan) const;

  const Table& table_;
  EngineOptions options_;
  /// Declared before mechanism_: the mechanism holds a raw pointer into it.
  std::unique_ptr<ExecutionContext> exec_;
  std::unique_ptr<Mechanism> mechanism_;
  std::unique_ptr<Planner> planner_;
  /// Null when EngineOptions::enable_plan_cache is off.
  std::unique_ptr<PlanCache> plan_cache_;
  /// Null unless EngineOptions::enable_feedback is on.
  std::unique_ptr<PlanStatsStore> plan_stats_;
  std::unique_ptr<PlanExecutor> executor_;
};

}  // namespace ldp

#endif  // LDPMDA_ENGINE_ENGINE_H_
