#include "plan/physical.h"

#include <cstdio>
#include <sstream>

namespace ldp {

const char* PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kExactFilter:
      return "ExactFilter";
    case PlanOpKind::kNodeEstimate:
      return "NodeEstimate";
    case PlanOpKind::kConsistency:
      return "Consistency";
    case PlanOpKind::kAggregateCompose:
      return "AggregateCompose";
  }
  return "?";
}

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kDirectLevelGrid:
      return "direct-level-grid";
    case PlanStrategy::kConsistentTree:
      return "consistent-tree";
    case PlanStrategy::kScDualPath:
      return "sc-dual-path";
    case PlanStrategy::kMgCellStream:
      return "mg-cell-stream";
    case PlanStrategy::kHdgGridCombine:
      return "hdg-grid-combine";
    case PlanStrategy::kCalmMarginalCombine:
      return "calm-marginal-combine";
  }
  return "?";
}

namespace {

/// Shortest-round-trip-free fixed formatting: goldens must be stable across
/// compilers, so doubles render with an explicit %.6g.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendDeps(std::ostringstream& os, const std::vector<int>& deps) {
  os << "[";
  for (size_t i = 0; i < deps.size(); ++i) {
    if (i > 0) os << ",";
    os << deps[i];
  }
  os << "]";
}

void AppendOpText(std::ostringstream& os, const PlanOp& op, int index) {
  os << "  " << index << ": " << PlanOpKindName(op.kind);
  switch (op.kind) {
    case PlanOpKind::kExactFilter:
      os << " component=" << ComponentKindName(op.component) << " key=\""
         << op.weight_key << "\"";
      break;
    case PlanOpKind::kNodeEstimate:
    case PlanOpKind::kConsistency:
      os << " component=" << ComponentKindName(op.component)
         << " term=" << op.term << " weights=" << op.weight_op << " deps=";
      AppendDeps(os, op.deps);
      os << " nodes~" << op.predicted_nodes;
      break;
    case PlanOpKind::kAggregateCompose:
      os << " deps=";
      AppendDeps(os, op.deps);
      break;
  }
  os << "\n";
}

/// Estimate calls the plan predicts: one per estimate op (batch dedup may
/// issue fewer; that is what the actual measures).
uint64_t PredictedEstimateCalls(const PhysicalPlan& plan) {
  uint64_t calls = 0;
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOpKind::kNodeEstimate ||
        op.kind == PlanOpKind::kConsistency) {
      ++calls;
    }
  }
  return calls;
}

}  // namespace

std::string PhysicalPlan::ToText(const Schema& schema) const {
  std::ostringstream os;
  os << "query: " << logical.query.ToString(schema) << "\n";
  os << "mechanism: " << MechanismKindName(mechanism) << "\n";
  os << "strategy: " << PlanStrategyName(strategy) << "\n";
  os << "components:";
  for (const ComponentKind c : logical.components) {
    os << " " << ComponentKindName(c);
  }
  os << "\n";
  os << "ie_terms: " << logical.terms.size() << "\n";
  os << "query_dims: " << query_dims << "\n";
  os << "query_volume: " << FormatDouble(query_volume) << "\n";
  os << "predicted_node_estimates: " << predicted_node_estimates << "\n";
  os << "predicted_variance_per_m2: " << FormatDouble(predicted_variance)
     << "\n";
  os << "advisor: recommended=" << MechanismKindName(advice.recommended)
     << " mg=" << FormatDouble(advice.mg_variance)
     << " hio=" << FormatDouble(advice.hio_variance)
     << " sc=" << FormatDouble(advice.sc_variance) << "\n";
  if (!candidates.empty()) {
    os << "candidates:";
    for (const MechanismScore& c : candidates) {
      os << " " << MechanismKindName(c.kind) << "="
         << (c.feasible ? FormatDouble(c.variance) : std::string("infeasible"));
    }
    os << "\n";
  }
  if (feedback.observations > 0) {
    // Predicted-vs-actual from the plan stats store. Rendered once the plan
    // has a recorded execution, and never part of the fingerprint (computed
    // with this block default-empty), so observation can't change plan
    // identity.
    os << "feedback:\n";
    os << "  observations: " << feedback.observations << "\n";
    os << "  estimate_calls: predicted=" << PredictedEstimateCalls(*this)
       << " actual~" << FormatDouble(feedback.estimate_calls) << "\n";
    os << "  node_estimates: predicted=" << predicted_node_estimates
       << " actual~" << FormatDouble(feedback.nodes) << "\n";
    os << "  wall_nanos: actual~" << FormatDouble(feedback.wall_nanos) << "\n";
  }
  os << "epoch: " << epoch << "\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  os << "fingerprint: " << fp << "\n";
  os << "ops:\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    AppendOpText(os, ops[i], static_cast<int>(i));
  }
  return os.str();
}

std::string PhysicalPlan::ToJson(const Schema& schema) const {
  std::ostringstream os;
  os << "{\"query\":\"" << logical.query.ToString(schema) << "\""
     << ",\"mechanism\":\"" << MechanismKindName(mechanism) << "\""
     << ",\"strategy\":\"" << PlanStrategyName(strategy) << "\""
     << ",\"components\":[";
  for (size_t i = 0; i < logical.components.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << ComponentKindName(logical.components[i]) << "\"";
  }
  os << "],\"ie_terms\":" << logical.terms.size()
     << ",\"query_dims\":" << query_dims
     << ",\"query_volume\":" << FormatDouble(query_volume)
     << ",\"predicted_node_estimates\":" << predicted_node_estimates
     << ",\"predicted_variance_per_m2\":" << FormatDouble(predicted_variance)
     << ",\"advisor\":{\"recommended\":\""
     << MechanismKindName(advice.recommended)
     << "\",\"mg\":" << FormatDouble(advice.mg_variance)
     << ",\"hio\":" << FormatDouble(advice.hio_variance)
     << ",\"sc\":" << FormatDouble(advice.sc_variance) << "}";
  if (!candidates.empty()) {
    os << ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0) os << ",";
      const MechanismScore& c = candidates[i];
      os << "{\"mechanism\":\"" << MechanismKindName(c.kind)
         << "\",\"feasible\":" << (c.feasible ? "true" : "false")
         << ",\"variance\":" << FormatDouble(c.variance) << "}";
    }
    os << "]";
  }
  if (feedback.observations > 0) {
    os << ",\"feedback\":{\"observations\":" << feedback.observations
       << ",\"predicted_estimate_calls\":" << PredictedEstimateCalls(*this)
       << ",\"actual_estimate_calls\":" << FormatDouble(feedback.estimate_calls)
       << ",\"predicted_node_estimates\":" << predicted_node_estimates
       << ",\"actual_nodes\":" << FormatDouble(feedback.nodes)
       << ",\"actual_wall_nanos\":" << FormatDouble(feedback.wall_nanos) << "}";
  }
  os << ",\"epoch\":" << epoch << ",\"fingerprint\":\"";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  os << fp << "\",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) os << ",";
    const PlanOp& op = ops[i];
    os << "{\"kind\":\"" << PlanOpKindName(op.kind) << "\"";
    if (op.kind != PlanOpKind::kAggregateCompose) {
      os << ",\"component\":\"" << ComponentKindName(op.component) << "\"";
    }
    if (op.kind == PlanOpKind::kNodeEstimate ||
        op.kind == PlanOpKind::kConsistency) {
      os << ",\"term\":" << op.term << ",\"weights\":" << op.weight_op
         << ",\"predicted_nodes\":" << op.predicted_nodes;
    }
    os << ",\"deps\":";
    std::ostringstream deps;
    AppendDeps(deps, op.deps);
    os << deps.str() << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ldp
