#ifndef LDPMDA_PLAN_WEIGHTS_H_
#define LDPMDA_PLAN_WEIGHTS_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "data/table.h"
#include "fo/frequency_oracle.h"
#include "query/aggregate.h"
#include "query/plan.h"
#include "query/predicate.h"

namespace ldp {

/// Builds and caches the per-user weight vectors behind ExactFilterOp: the
/// component's base weights (all-ones for COUNT, the measure expression for
/// SUM, its square for SUMSQ) with the term's public-dimension constraints
/// folded in exactly (a non-matching user contributes 0 — Section 7).
///
/// Weight vectors are shared across queries keyed by
/// (component, measure expression, public constraints), so the
/// accumulator-side per-weight-set histogram caches keep hitting when
/// templated queries repeat. The key format is identical to the pre-planner
/// engine cache. Thread-safe behind one mutex (construction is rare; the
/// hot path is a lookup).
class WeightStore {
 public:
  explicit WeightStore(const Table& table) : table_(table) {}

  /// Canonical cache key — also the planner's handle for sharing one
  /// kExactFilter op among a plan's terms with the same weights.
  static std::string Key(ComponentKind component, const MeasureExpr& expr,
                         const Schema& schema,
                         std::span<const Constraint> public_constraints);

  /// The weight vector for (component, expr, public constraints); built on
  /// first use, then shared. Values are bit-identical to an uncached build.
  Result<std::shared_ptr<const WeightVector>> Get(
      ComponentKind component, const MeasureExpr& expr,
      std::span<const Constraint> public_constraints);

 private:
  /// Same budget as the legacy engine-side cache: weight vectors are O(n)
  /// doubles, so a handful of live ones is plenty for templated workloads.
  static constexpr size_t kMaxCachedWeightVectors = 32;

  const Table& table_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const WeightVector>> cache_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_WEIGHTS_H_
