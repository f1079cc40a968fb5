#ifndef LDPMDA_PLAN_EXECUTOR_H_
#define LDPMDA_PLAN_EXECUTOR_H_

#include <chrono>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "exec/execution_context.h"
#include "mech/mechanism.h"
#include "obs/trace.h"
#include "plan/physical.h"
#include "plan/stats_store.h"
#include "plan/weights.h"

namespace ldp {

class MultiMechanism;

/// Executes physical plans against one deployment's reports. This is the
/// estimation fan-out that used to live inside AnalyticsEngine::Execute,
/// extracted behind the plan IR; the replay contract is bit-identity with
/// that legacy path:
///
///   * ops run in list order — component-major, term-minor, exactly the
///     legacy accumulation order;
///   * each estimate op contributes `coefficient * EstimateBox(...)` to its
///     component's running total, in term order;
///   * components compose in the legacy order (AVG = SUM then COUNT;
///     STDEV = SUMSQ, SUM, COUNT) with the legacy guards (count <= 0 -> 0).
///
/// Because EstimateBox is deterministic pure post-processing of the reports,
/// RunBatch can additionally share one estimate across every op (in any
/// query of the batch) with the same (weights, sensitive box) — the reuse
/// returns the bit-exact value a recomputation would, so batch answers equal
/// the sequential ones while the mechanism sees each distinct estimate only
/// once. GlobalMetrics: `plan.estimate_calls` counts mechanism estimate
/// calls actually issued, `plan.batch_queries` and `plan.batch_dedup_hits`
/// the batch traffic and the calls the dedup saved.
class PlanExecutor {
 public:
  /// References must outlive the executor; none are owned.
  PlanExecutor(const Table& table, const Mechanism& mechanism,
               const ExecutionContext& exec);

  /// The plan's estimate. Fills `profile` stage spans (fanout/estimate) and
  /// ie_terms exactly like the legacy engine when non-null.
  Result<double> Run(const PhysicalPlan& plan, QueryProfile* profile) const;

  struct Bounded {
    double estimate = 0.0;
    double stddev = 0.0;
  };
  /// Estimate plus the conservative per-term |coef| * stddev-bound sum for
  /// single-component (COUNT/SUM) plans — the caller checks the aggregate.
  Result<Bounded> RunWithBound(const PhysicalPlan& plan) const;

  /// Executes a workload in one pass: plans[i]'s answer goes to out[i].
  /// Estimates with identical (weight key, sensitive box, strategy) are
  /// computed once, at their first encounter in plan order, and shared.
  /// out[i] is bit-identical to Run(*plans[i], ...) run sequentially.
  /// When `observations` is non-null it receives one measured
  /// PlanObservation per plan (index-aligned with `plans`) for the plan
  /// stats store; a dedup-served estimate counts toward the plan that
  /// computed it, not the plans that reused it.
  Status RunBatch(std::span<const std::shared_ptr<const PhysicalPlan>> plans,
                  std::span<double> out, QueryProfile* profile,
                  std::vector<PlanObservation>* observations = nullptr) const;

  WeightStore& weight_store() const { return *weights_; }

 private:
  struct RunState;

  /// Replays the plan's estimate ops into per-component totals, sharing
  /// `state` (estimate memo + consistent-tree cache) across calls.
  Status AccumulateComponents(const PhysicalPlan& plan, RunState* state,
                              QueryProfile* profile,
                              double (&totals)[kNumComponentKinds]) const;

  /// The legacy aggregate composition over the component totals.
  double Compose(const PhysicalPlan& plan,
                 const double (&totals)[kNumComponentKinds]) const;

  const Table& table_;
  const Mechanism& mechanism_;
  /// Non-null iff `mechanism_` is a MultiMechanism composite; estimate ops
  /// then dispatch to the sub-mechanism each plan chose.
  const MultiMechanism* multi_ = nullptr;
  const ExecutionContext& exec_;
  std::unique_ptr<WeightStore> weights_;
};

/// Measures PlanObservation::nodes_touched: the total hierarchy/grid node
/// estimates an execution requested between construction and Touched(),
/// cache-served nodes included. With the estimate cache on, the measure is
/// the cache's probe count (hits + misses — every per-node estimate routes
/// through the cache, on the composite's sub-caches too); with it off, the
/// `estimate.nodes` kernel counter. Both equal total nodes touched, so the
/// measure is invariant to the cache configuration — which keeps the
/// recorded actuals (EXPLAIN, plan-regression replay) comparable across
/// deployments with different cache settings.
/// Caveats (best-effort, like QueryProfile's work counters): the kernel
/// counter is zero while metrics are disabled, and MG boxes over 2^16 cells
/// bypass the cache.
class NodeTouchMeter {
 public:
  explicit NodeTouchMeter(const Mechanism& mechanism);

  /// Nodes touched since construction. Deterministic for a deterministic
  /// execution; exact when queries run one at a time per engine.
  uint64_t Touched() const;

 private:
  /// Per-cache baseline stats (the composite case has one per sub).
  std::vector<std::pair<const EstimateCache*, EstimateCache::Stats>> caches_;
  uint64_t kernel_before_ = 0;
};

/// Differences engine-level work stats around a profiled query (or batch of
/// `num_queries`) and folds them into the profile — the attribution layer
/// behind QueryProfile's work counters. Stack-scoped: captured at
/// construction, folded at destruction, so every exit path is covered.
/// Moved here from engine.cc with the fan-out logic; AnalyticsEngine opens
/// one scope per Execute/ExecuteBatch.
class ProfiledQueryScope {
 public:
  ProfiledQueryScope(QueryProfile* profile, const Mechanism& mechanism,
                     const ExecutionContext& exec, uint64_t num_queries = 1);
  ~ProfiledQueryScope();

  ProfiledQueryScope(const ProfiledQueryScope&) = delete;
  ProfiledQueryScope& operator=(const ProfiledQueryScope&) = delete;

 private:
  uint64_t StageNanos() const;

  QueryProfile* profile_;
  const Mechanism& mechanism_;
  const ExecutionContext& exec_;
  uint64_t num_queries_;
  std::chrono::steady_clock::time_point start_;
  uint64_t stage_nanos_before_ = 0;
  uint64_t chunks_before_ = 0;
  uint64_t nodes_counter_before_ = 0;
  EstimateCache::Stats cache_before_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_EXECUTOR_H_
