#include "plan/planner.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "plan/weights.h"

namespace ldp {

Planner::Planner(Schema schema, MechanismKind mechanism,
                 const MechanismParams& params, const PlannerOptions& options)
    : Planner(std::move(schema), std::vector<MechanismKind>{mechanism}, params,
              options) {}

Planner::Planner(Schema schema, std::vector<MechanismKind> candidates,
                 const MechanismParams& params, const PlannerOptions& options)
    : schema_(std::move(schema)),
      mechanism_(candidates.empty() ? MechanismKind::kHio : candidates[0]),
      candidates_(std::move(candidates)),
      params_(params),
      options_(options),
      hierarchies_(BuildHierarchies(schema_, params.fanout)) {
  if (candidates_.empty()) candidates_.push_back(mechanism_);
}

uint64_t Planner::PredictTermNodes(const LogicalTerm& term) const {
  return PredictTermNodesFor(mechanism_, term);
}

uint64_t Planner::PredictTermNodesFor(MechanismKind mechanism,
                                      const LogicalTerm& term) const {
  // Saturating products: domains are small in practice, but MG cell counts
  // are m^d-ish and must not wrap.
  constexpr uint64_t kCap = uint64_t{1} << 62;
  uint64_t nodes = 1;
  auto mul = [&nodes](uint64_t f) {
    if (f == 0) f = 1;
    nodes = (nodes > kCap / f) ? kCap : nodes * f;
  };
  switch (mechanism) {
    case MechanismKind::kMg: {
      // MG streams every grid cell of the box.
      for (const Interval& r : term.sensitive) mul(r.length());
      return nodes;
    }
    case MechanismKind::kSc: {
      // SC combines one inner sum per constrained dimension (dual path);
      // each inner sum touches that dimension's decomposition pieces.
      uint64_t total = 0;
      for (size_t i = 0; i < term.sensitive.size(); ++i) {
        const DimHierarchy& h = *hierarchies_[i];
        const Interval full{0, h.domain_size() - 1};
        if (term.sensitive[i].lo == full.lo &&
            term.sensitive[i].hi == full.hi) {
          continue;
        }
        std::vector<LevelInterval> pieces;
        if (h.Decompose(term.sensitive[i], &pieces).ok()) {
          total += pieces.size();
        }
      }
      return std::max<uint64_t>(total, 1);
    }
    default: {
      // HI/HIO/QuadTree/Haar: the level-grid fan-out is the cross product of
      // the per-dimension canonical decompositions (root for unconstrained
      // dimensions contributes factor 1). HDG/CALM touch fewer cells than
      // this (coarse grids / direct marginal sub-boxes), so the same product
      // serves as their conservative annotation.
      for (size_t i = 0; i < term.sensitive.size(); ++i) {
        std::vector<LevelInterval> pieces;
        if (hierarchies_[i]->Decompose(term.sensitive[i], &pieces).ok()) {
          mul(pieces.size());
        }
      }
      return nodes;
    }
  }
}

double Planner::QueryVolume(const Schema& schema, const LogicalPlan& logical) {
  double volume = 0.0;
  for (const LogicalTerm& term : logical.terms) {
    double frac = 1.0;
    size_t i = 0;
    for (const int attr : schema.sensitive_dims()) {
      const double m =
          static_cast<double>(schema.attribute(attr).domain_size);
      frac *= static_cast<double>(term.sensitive[i].length()) / m;
      ++i;
    }
    volume += term.coefficient * frac;
  }
  return std::clamp(volume, 0.0, 1.0);
}

Result<PhysicalPlan> Planner::Plan(LogicalPlan logical,
                                   uint64_t epoch) const {
  PhysicalPlan plan;
  plan.mechanism = mechanism_;
  plan.epoch = epoch;

  // --- Workload shape: constrained dimensions and exact union volume. ---
  int constrained = 0;
  for (size_t i = 0; i < schema_.sensitive_dims().size(); ++i) {
    const uint64_t m = hierarchies_[i]->domain_size();
    for (const LogicalTerm& term : logical.terms) {
      const Interval r = term.sensitive[i];
      if (r.lo != 0 || r.hi != m - 1) {
        ++constrained;
        break;
      }
    }
  }
  plan.query_dims = std::max(constrained, 1);
  plan.query_volume = QueryVolume(schema_, logical);
  const WorkloadProfile profile{plan.query_dims, plan.query_volume};

  // --- Mechanism choice: with one registered candidate the choice is
  // forced (today's single-mechanism planning, bit for bit); with several
  // the per-mechanism cost model scores them all against this query's shape
  // and the plan records both the winner and the rejected scores. ---
  MechanismKind chosen = mechanism_;
  if (candidates_.size() > 1) {
    plan.candidates = ScoreMechanisms(schema_, params_, profile, candidates_);
    chosen = ChooseMechanism(plan.candidates);
    plan.mechanism = chosen;
  }

  // --- Strategy: the chosen mechanism's native shape, or the opt-in
  // consistent tree when the deployment qualifies (single-mechanism HIO
  // with 1 sensitive ordinal dim; the consistency path needs direct access
  // to the HIO mechanism, which a composite engine does not expose). ---
  switch (chosen) {
    case MechanismKind::kMg:
      plan.strategy = PlanStrategy::kMgCellStream;
      break;
    case MechanismKind::kSc:
      plan.strategy = PlanStrategy::kScDualPath;
      break;
    case MechanismKind::kHdg:
      plan.strategy = PlanStrategy::kHdgGridCombine;
      break;
    case MechanismKind::kCalm:
      plan.strategy = PlanStrategy::kCalmMarginalCombine;
      break;
    default:
      plan.strategy = PlanStrategy::kDirectLevelGrid;
      break;
  }
  if (options_.enable_consistency && candidates_.size() == 1 &&
      chosen == MechanismKind::kHio &&
      schema_.sensitive_dims().size() == 1 &&
      schema_.attribute(schema_.sensitive_dims()[0]).kind ==
          AttributeKind::kSensitiveOrdinal) {
    plan.strategy = PlanStrategy::kConsistentTree;
    plan.use_consistency = true;
  }

  // --- Cost annotations: advisor proxies + per-term node predictions. ---
  plan.advice = AdviseMechanism(schema_, params_, profile);
  double coef_sq = 0.0;
  for (const LogicalTerm& term : logical.terms) {
    coef_sq += term.coefficient * term.coefficient;
  }
  // The chosen mechanism's own proxy: its scored candidate entry, or a
  // one-candidate scoring on a single-mechanism engine.
  double proxy = 0.0;
  if (plan.candidates.empty()) {
    const MechanismKind one[] = {chosen};
    proxy = ScoreMechanisms(schema_, params_, profile, one)[0].variance;
  } else {
    for (const MechanismScore& score : plan.candidates) {
      if (score.kind == chosen) proxy = score.variance;
    }
  }
  plan.predicted_variance = proxy * coef_sq;

  // --- Op list: component-major, term-minor — exactly the legacy engine's
  // accumulation order, which the executor replays for bit-identical
  // results. ExactFilter ops are deduplicated by weight key. ---
  std::unordered_map<std::string, int> filter_ops;
  std::vector<int> estimate_ops;
  for (const ComponentKind component : logical.components) {
    for (size_t t = 0; t < logical.terms.size(); ++t) {
      const LogicalTerm& term = logical.terms[t];
      const std::string key =
          WeightStore::Key(component, logical.query.aggregate.expr, schema_,
                           term.public_constraints);
      auto [it, inserted] =
          filter_ops.emplace(key, static_cast<int>(plan.ops.size()));
      if (inserted) {
        PlanOp filter;
        filter.kind = PlanOpKind::kExactFilter;
        filter.component = component;
        filter.weight_key = key;
        plan.ops.push_back(std::move(filter));
      }
      PlanOp est;
      est.kind = plan.use_consistency ? PlanOpKind::kConsistency
                                      : PlanOpKind::kNodeEstimate;
      est.component = component;
      est.term = static_cast<int>(t);
      est.weight_op = it->second;
      est.deps.push_back(it->second);
      est.predicted_nodes = PredictTermNodesFor(chosen, term);
      plan.predicted_node_estimates += est.predicted_nodes;
      estimate_ops.push_back(static_cast<int>(plan.ops.size()));
      plan.ops.push_back(std::move(est));
    }
  }
  PlanOp compose;
  compose.kind = PlanOpKind::kAggregateCompose;
  compose.deps = std::move(estimate_ops);
  plan.ops.push_back(std::move(compose));

  plan.logical = std::move(logical);
  // Fingerprint the canonical rendering with epoch/fingerprint zeroed so
  // structurally identical plans match across report states and runs.
  plan.epoch = 0;
  plan.fingerprint = 0;
  plan.fingerprint = Checksum64(plan.ToText(schema_));
  plan.epoch = epoch;
  return plan;
}

}  // namespace ldp
