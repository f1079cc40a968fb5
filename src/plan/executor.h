#ifndef LDPMDA_PLAN_EXECUTOR_H_
#define LDPMDA_PLAN_EXECUTOR_H_

#include <chrono>
#include <memory>
#include <vector>

#include "exec/execution_context.h"
#include "mech/mechanism.h"
#include "obs/trace.h"
#include "plan/physical.h"
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
/// Reuse across queries lives below the executor, in the mechanism's
/// node-level EstimateCache. GlobalMetrics: `plan.estimate_calls` counts
/// mechanism estimate calls issued.
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

 private:
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

/// Differences engine-level work stats around one profiled query and folds
/// them into the profile — the attribution layer behind QueryProfile's work
/// counters. Stack-scoped: captured at construction, folded at destruction,
/// so every exit path is covered. AnalyticsEngine opens one scope per
/// Execute. The estimate-cache counters sum over every cache the mechanism
/// owns: its own, or each sub-mechanism's on a MultiMechanism composite.
class ProfiledQueryScope {
 public:
  ProfiledQueryScope(QueryProfile* profile, const Mechanism& mechanism,
                     const ExecutionContext& exec);
  ~ProfiledQueryScope();

  ProfiledQueryScope(const ProfiledQueryScope&) = delete;
  ProfiledQueryScope& operator=(const ProfiledQueryScope&) = delete;

 private:
  uint64_t StageNanos() const;
  /// Stats summed over `caches_`.
  EstimateCache::Stats CacheStats() const;

  QueryProfile* profile_;
  const ExecutionContext& exec_;
  /// The mechanism's estimate caches; empty when the cache is off.
  std::vector<const EstimateCache*> caches_;
  std::chrono::steady_clock::time_point start_;
  uint64_t stage_nanos_before_ = 0;
  uint64_t chunks_before_ = 0;
  uint64_t nodes_counter_before_ = 0;
  EstimateCache::Stats cache_before_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_EXECUTOR_H_
