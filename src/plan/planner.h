#ifndef LDPMDA_PLAN_PLANNER_H_
#define LDPMDA_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "hierarchy/dim_hierarchy.h"
#include "plan/physical.h"

namespace ldp {

struct PlannerOptions {
  /// Allow the consistency-corrected strategy (least-squares consistent HIO
  /// tree) when the deployment qualifies: HIO with exactly one sensitive
  /// ordinal dimension. OFF by default — consistency changes answers, and
  /// the default plans must stay bit-identical to the pre-planner engine.
  bool enable_consistency = false;
};

/// Lowers logical plans to physical plans for one deployment
/// (schema + mechanism + params). Stateless after construction and
/// deterministic: the same logical plan always lowers to the same ops, cost
/// annotations, and fingerprint — which is what makes EXPLAIN output
/// golden-testable and plans safely cacheable/shareable.
///
/// The cost model is analytic, not sampled: per-term node counts come from
/// the hierarchy decompositions (DimHierarchy::Decompose piece counts; MG
/// streams raw cells), and the variance annotation instantiates the
/// advisor's Section 5.4 closed-form proxies for the workload this query
/// implies (its constrained dimension count and inclusion–exclusion
/// volume). The advisor's verdict rides along so EXPLAIN can show when the
/// configured mechanism differs from the analytically best one.
class Planner {
 public:
  Planner(Schema schema, MechanismKind mechanism,
          const MechanismParams& params, const PlannerOptions& options = {});

  /// Multi-mechanism planner: `candidates` lists the mechanisms registered
  /// with the engine (the first is the primary). With more than one
  /// candidate every Plan() call scores all of them against the query's
  /// workload shape and the plan records the chosen mechanism plus the
  /// rejected candidates' scores; with exactly one this is identical to the
  /// single-mechanism constructor.
  Planner(Schema schema, std::vector<MechanismKind> candidates,
          const MechanismParams& params, const PlannerOptions& options = {});

  /// Lowers `logical` into an executable physical plan stamped with the
  /// report-store `epoch` it was planned at.
  Result<PhysicalPlan> Plan(LogicalPlan logical, uint64_t epoch) const;

  /// Predicted number of node estimates one term's EstimateBox costs —
  /// exposed for tests of the cost model.
  uint64_t PredictTermNodes(const LogicalTerm& term) const;

  /// Signed inclusion–exclusion volume of the plan's boxes as a fraction of
  /// the sensitive cross-product domain — the exact union volume, i.e. the
  /// advisor's vol(q).
  static double QueryVolume(const Schema& schema, const LogicalPlan& logical);

  const PlannerOptions& options() const { return options_; }
  const std::vector<MechanismKind>& candidates() const { return candidates_; }

 private:
  uint64_t PredictTermNodesFor(MechanismKind mechanism,
                               const LogicalTerm& term) const;

  Schema schema_;
  /// Primary mechanism (candidates_[0]); the forced choice when only one
  /// candidate is registered.
  MechanismKind mechanism_;
  /// Registered mechanism kinds, in registration order.
  std::vector<MechanismKind> candidates_;
  MechanismParams params_;
  PlannerOptions options_;
  /// Per sensitive dimension, in Schema::sensitive_dims() order.
  std::vector<std::unique_ptr<DimHierarchy>> hierarchies_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_PLANNER_H_
