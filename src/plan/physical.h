#ifndef LDPMDA_PLAN_PHYSICAL_H_
#define LDPMDA_PLAN_PHYSICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mech/advisor.h"
#include "mech/mechanism.h"
#include "query/plan.h"

namespace ldp {

/// Physical operators a logical plan lowers to. The op list is the unit of
/// execution (PlanExecutor replays it in order) and of explanation
/// (ExplainPlan renders it); both consume the same structure, so what EXPLAIN
/// shows is what runs.
enum class PlanOpKind {
  /// Materializes (or reuses) the per-user weight vector for one
  /// (component, public-constraint set): the exact server-side pre-filter of
  /// public dimensions. Deduplicated across terms and components — two
  /// estimate ops with the same weight key share one filter op.
  kExactFilter,
  /// One mechanism EstimateBox call: the term's sensitive box against the
  /// filter op's weights, fanned out over EstimateNodesBatched internally.
  kNodeEstimate,
  /// Consistency-corrected range estimate on the least-squares consistent
  /// HIO tree (ConsistentHio) instead of the raw per-level estimates. Only
  /// planned when PlannerOptions::enable_consistency is set — it changes
  /// answers, so it is never part of the bit-identical default path.
  kConsistency,
  /// Combines the per-component totals into the final aggregate
  /// (AVG = SUM/COUNT, STDEV from SUMSQ/SUM/COUNT). Always the last op.
  kAggregateCompose,
};

const char* PlanOpKindName(PlanOpKind kind);

/// How the mechanism answers the plan's boxes — a descriptive label chosen by
/// the planner from the mechanism kind and options. Only kConsistentTree
/// changes results; the others name the mechanism's native execution shape.
enum class PlanStrategy {
  /// Per-level hierarchy/grid estimates summed over the canonical
  /// decomposition (HI, HIO, QuadTree, Haar).
  kDirectLevelGrid,
  /// 1-dim ordinal HIO with Hay-style least-squares consistency correction.
  kConsistentTree,
  /// Split-and-conquer dual path: per-dimension inner sums combined across
  /// the (dimension, level) report groups.
  kScDualPath,
  /// Marginal-grid cell streaming: the box sum enumerates grid cells.
  kMgCellStream,
  /// HDG: response-count weighted combination over the 1-D/2-D grids
  /// covering the constrained dimensions.
  kHdgGridCombine,
  /// CALM: response-count weighted combination over the covering size-k
  /// marginals' sub-boxes.
  kCalmMarginalCombine,
};

const char* PlanStrategyName(PlanStrategy strategy);

/// One physical operator. `deps` are indices of ops that must run first;
/// the planner emits ops pre-toposorted, so executing in list order always
/// satisfies them.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kNodeEstimate;
  /// Component this op contributes to (filter/estimate/consistency ops).
  ComponentKind component = ComponentKind::kCount;
  /// Index into LogicalPlan::terms (estimate/consistency ops; -1 otherwise).
  int term = -1;
  /// Index of the kExactFilter op whose weights this op consumes (-1 n/a).
  int weight_op = -1;
  std::vector<int> deps;
  /// Planner's node-count prediction for this op (cost annotation).
  uint64_t predicted_nodes = 0;
  /// kExactFilter only: the canonical weight key (WeightStore::Key). The
  /// planner emits one filter op per key; EXPLAIN prints it.
  std::string weight_key;
};

/// Recorded actuals riding along with a plan (the PlanStatsStore entry for
/// this plan's fingerprint at EXPLAIN time). Display data only: nothing in
/// planning or execution reads it. Excluded from the plan fingerprint — the
/// planner fingerprints the plan with this block default-empty and the
/// engine overlays it afterwards, so observing a plan never changes its
/// identity.
struct PlanFeedback {
  /// Recorded executions of this fingerprint; EXPLAIN renders the
  /// predicted-vs-actual block once this is > 0.
  uint64_t observations = 0;
  /// EWMA actuals (see PlanStatsStore). wall_nanos is nondeterministic
  /// timing data; estimate_calls/nodes are deterministic work measures.
  double wall_nanos = 0.0;
  double estimate_calls = 0.0;
  double nodes = 0.0;
};

/// A fully lowered, executable query plan: the logical plan plus the
/// mechanism-specific strategy, the op list, and the planner's cost
/// annotations. Immutable after planning; the plan cache shares instances
/// across queries via shared_ptr<const PhysicalPlan>.
struct PhysicalPlan {
  LogicalPlan logical;
  MechanismKind mechanism = MechanismKind::kHio;
  PlanStrategy strategy = PlanStrategy::kDirectLevelGrid;
  /// Advisor verdict for the workload this query implies (Section 5.4
  /// turning points); predicted_variance is the proxy for the mechanism the
  /// plan actually targets.
  MechanismAdvice advice;
  double predicted_variance = 0.0;
  /// Sum of per-op predicted node counts — the planner's cost proxy for the
  /// estimate fan-out.
  uint64_t predicted_node_estimates = 0;
  /// Signed inclusion–exclusion volume fraction of the predicate (exact
  /// union volume of the boxes, as a fraction of the sensitive domain).
  double query_volume = 0.0;
  /// Number of sensitive dimensions the predicate constrains (>= 1).
  int query_dims = 1;
  bool use_consistency = false;
  /// Report-store epoch (Mechanism::num_reports) the plan was built at; the
  /// plan cache hard-drops entries whose epoch differs in either direction.
  uint64_t epoch = 0;
  /// Checksum of the canonical plan text (epoch excluded): two structurally
  /// identical plans have the same fingerprint across runs and processes.
  uint64_t fingerprint = 0;
  /// Per-candidate cost-model scores behind the mechanism choice, in
  /// candidate-registration order. Empty for single-mechanism planners (the
  /// choice is forced), so single-mechanism EXPLAIN output is unchanged.
  std::vector<MechanismScore> candidates;
  /// Recorded actuals for this fingerprint, when the engine records them
  /// (EngineOptions::enable_feedback) and has executed this plan.
  /// Default-empty (not rendered, not fingerprinted) otherwise.
  PlanFeedback feedback;
  std::vector<PlanOp> ops;

  /// Stable human-readable EXPLAIN rendering. Deterministic: fixed field
  /// order, %.6g doubles, no pointers or hash-order iteration.
  std::string ToText(const Schema& schema) const;
  /// The same content as a single JSON object.
  std::string ToJson(const Schema& schema) const;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_PHYSICAL_H_
