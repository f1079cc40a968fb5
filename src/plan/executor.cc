#include "plan/executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "mech/consistency.h"
#include "mech/hio.h"
#include "mech/multi.h"

namespace ldp {

namespace {

Counter* EstimateCalls() {
  static Counter* c = GlobalMetrics().counter("plan.estimate_calls");
  return c;
}
Counter* EstimateNodes() {
  static Counter* counter = GlobalMetrics().counter("estimate.nodes");
  return counter;
}

}  // namespace

PlanExecutor::PlanExecutor(const Table& table, const Mechanism& mechanism,
                           const ExecutionContext& exec)
    : table_(table),
      mechanism_(mechanism),
      multi_(dynamic_cast<const MultiMechanism*>(&mechanism)),
      exec_(exec),
      weights_(std::make_unique<WeightStore>(table)) {}

Result<double> PlanExecutor::Run(const PhysicalPlan& plan,
                                 QueryProfile* profile) const {
  if (plan.logical.terms.empty()) return 0.0;  // unsatisfiable predicate
  // weight-vector id -> consistent tree (kConsistency strategy only).
  std::unordered_map<uint64_t, ConsistentHio> trees;
  double totals[kNumComponentKinds] = {0.0, 0.0, 0.0};
  for (const PlanOp& op : plan.ops) {
    if (op.kind != PlanOpKind::kNodeEstimate &&
        op.kind != PlanOpKind::kConsistency) {
      continue;  // filters resolve lazily below; compose happens after
    }
    const LogicalTerm& term = plan.logical.terms[op.term];
    TraceSpan fanout_span(profile, QueryProfile::kFanout);
    LDP_ASSIGN_OR_RETURN(
        auto weights,
        weights_->Get(op.component, plan.logical.query.aggregate.expr,
                      term.public_constraints));
    fanout_span.Stop();
    TraceSpan estimate_span(profile, QueryProfile::kEstimate);
    double estimate = 0.0;
    if (op.kind == PlanOpKind::kConsistency) {
      auto tree_it = trees.find(weights->id());
      if (tree_it == trees.end()) {
        const auto* hio = dynamic_cast<const HioMechanism*>(&mechanism_);
        if (hio == nullptr) {
          return Status::Internal(
              "consistency strategy planned for a non-HIO mechanism");
        }
        LDP_ASSIGN_OR_RETURN(ConsistentHio tree,
                             ConsistentHio::Build(*hio, *weights));
        tree_it = trees.emplace(weights->id(), std::move(tree)).first;
      }
      LDP_ASSIGN_OR_RETURN(estimate,
                           tree_it->second.EstimateRange(term.sensitive[0]));
    } else if (multi_ != nullptr) {
      // Composite engine: dispatch to the mechanism this plan chose.
      LDP_ASSIGN_OR_RETURN(
          estimate,
          multi_->EstimateBoxWith(plan.mechanism, term.sensitive, *weights));
    } else {
      LDP_ASSIGN_OR_RETURN(estimate,
                           mechanism_.EstimateBox(term.sensitive, *weights));
    }
    estimate_span.Stop();
    EstimateCalls()->Increment();
    if (profile != nullptr) ++profile->estimate_calls;
    totals[static_cast<int>(op.component)] += term.coefficient * estimate;
  }
  if (profile != nullptr) {
    profile->ie_terms +=
        plan.logical.components.size() * plan.logical.terms.size();
  }
  return Compose(plan, totals);
}

double PlanExecutor::Compose(const PhysicalPlan& plan,
                             const double (&totals)[kNumComponentKinds]) const {
  const double count = totals[static_cast<int>(ComponentKind::kCount)];
  const double sum = totals[static_cast<int>(ComponentKind::kSum)];
  const double sum_sq = totals[static_cast<int>(ComponentKind::kSumSq)];
  switch (plan.logical.query.aggregate.kind) {
    case AggregateKind::kCount:
      return count;
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      if (count <= 0.0) return 0.0;  // noise swamped the group entirely
      return sum / count;
    case AggregateKind::kStdev: {
      if (count <= 0.0) return 0.0;
      const double mean = sum / count;
      return std::sqrt(std::max(0.0, sum_sq / count - mean * mean));
    }
  }
  return 0.0;
}

Result<PlanExecutor::Bounded> PlanExecutor::RunWithBound(
    const PhysicalPlan& plan) const {
  Bounded out;
  if (plan.logical.terms.empty()) return out;
  LDP_ASSIGN_OR_RETURN(out.estimate, Run(plan, nullptr));
  // Conservative combination across inclusion-exclusion terms: the term
  // errors may be correlated (they share reports), so bound the total
  // stddev by the sum of per-term |coef| * stddev bounds.
  const ComponentKind component = plan.logical.components[0];
  double stddev = 0.0;
  for (const LogicalTerm& term : plan.logical.terms) {
    LDP_ASSIGN_OR_RETURN(
        auto weights,
        weights_->Get(component, plan.logical.query.aggregate.expr,
                      term.public_constraints));
    double variance = 0.0;
    if (multi_ != nullptr) {
      // Composite engine: bound through the mechanism THIS plan chose, like
      // Run's EstimateBoxWith dispatch — the composite's own VarianceBound
      // re-scores the box shape and can name a different sub.
      LDP_ASSIGN_OR_RETURN(variance, multi_->VarianceBoundWith(
                                         plan.mechanism, term.sensitive,
                                         *weights));
    } else {
      LDP_ASSIGN_OR_RETURN(
          variance, mechanism_.VarianceBound(term.sensitive, *weights));
    }
    stddev += std::abs(term.coefficient) * std::sqrt(std::max(variance, 0.0));
  }
  out.stddev = stddev;
  return out;
}

// --- ProfiledQueryScope ----------------------------------------------------

ProfiledQueryScope::ProfiledQueryScope(QueryProfile* profile,
                                       const Mechanism& mechanism,
                                       const ExecutionContext& exec)
    : profile_(profile), exec_(exec) {
  if (profile_ == nullptr) return;
  if (const EstimateCache* cache = mechanism.estimate_cache()) {
    caches_.push_back(cache);
  } else if (const auto* multi =
                 dynamic_cast<const MultiMechanism*>(&mechanism)) {
    // The composite holds no cache of its own; its subs do (all or none).
    for (int i = 0; i < multi->num_sub_mechanisms(); ++i) {
      if (const EstimateCache* cache = multi->sub(i).estimate_cache()) {
        caches_.push_back(cache);
      }
    }
  }
  start_ = std::chrono::steady_clock::now();
  stage_nanos_before_ = StageNanos();
  chunks_before_ = exec_.chunks_dispatched();
  cache_before_ = CacheStats();
  nodes_counter_before_ = EstimateNodes()->value();
}

ProfiledQueryScope::~ProfiledQueryScope() {
  if (profile_ == nullptr) return;
  const uint64_t total = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  profile_->total_nanos += total;
  ++profile_->queries;
  // The aggregate stage is everything done outside the explicitly spanned
  // stages (component assembly, AVG/STDEV combination), so the stage walls
  // partition the query wall.
  const uint64_t staged = StageNanos() - stage_nanos_before_;
  profile_->stages[QueryProfile::kAggregate].wall_nanos +=
      total > staged ? total - staged : 0;
  ++profile_->stages[QueryProfile::kAggregate].calls;
  profile_->exec_chunks += exec_.chunks_dispatched() - chunks_before_;
  if (!caches_.empty()) {
    const EstimateCache::Stats now = CacheStats();
    profile_->cache_hits += now.hits - cache_before_.hits;
    profile_->cache_misses += now.misses - cache_before_.misses;
    profile_->cache_epoch_drops += now.epoch_drops - cache_before_.epoch_drops;
    // Every cache miss is exactly one node estimated by a kernel, for every
    // mechanism (they all route per-node estimates through the cache when it
    // is on).
    profile_->nodes_estimated += now.misses - cache_before_.misses;
  } else {
    // Cache off: fall back to the batched-kernel counter. Zero while metrics
    // are disabled, and blind to mechanisms that bypass
    // EstimateNodesBatched — a best-effort view, unlike the cache path.
    profile_->nodes_estimated +=
        static_cast<uint64_t>(EstimateNodes()->value()) -
        nodes_counter_before_;
  }
}

EstimateCache::Stats ProfiledQueryScope::CacheStats() const {
  EstimateCache::Stats sum;
  for (const EstimateCache* cache : caches_) {
    const EstimateCache::Stats stats = cache->stats();
    sum.hits += stats.hits;
    sum.misses += stats.misses;
    sum.epoch_drops += stats.epoch_drops;
  }
  return sum;
}

uint64_t ProfiledQueryScope::StageNanos() const {
  uint64_t nanos = 0;
  for (int s = 0; s < QueryProfile::kNumStages; ++s) {
    if (s == QueryProfile::kAggregate) continue;
    nanos += profile_->stages[s].wall_nanos;
  }
  return nanos;
}

}  // namespace ldp
