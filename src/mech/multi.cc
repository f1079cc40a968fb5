#include "mech/multi.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mech/advisor.h"
#include "mech/factory.h"

namespace ldp {

Result<std::unique_ptr<MultiMechanism>> MultiMechanism::Create(
    const Schema& schema, const MechanismParams& params,
    std::span<const MechanismKind> kinds) {
  if (kinds.empty()) {
    return Status::InvalidArgument("MultiMechanism needs at least one kind");
  }
  for (size_t i = 0; i < kinds.size(); ++i) {
    for (size_t j = i + 1; j < kinds.size(); ++j) {
      if (kinds[i] == kinds[j]) {
        return Status::InvalidArgument("duplicate mechanism kind: " +
                                       MechanismKindName(kinds[i]));
      }
    }
  }
  std::unique_ptr<MultiMechanism> multi(new MultiMechanism(schema, params));
  multi->group_offset_.push_back(0);
  for (const MechanismKind kind : kinds) {
    LDP_ASSIGN_OR_RETURN(auto sub, CreateMechanism(kind, schema, params));
    multi->group_offset_.push_back(multi->group_offset_.back() +
                                   sub->NumReportGroups());
    multi->subs_.push_back(std::move(sub));
  }
  if (multi->group_offset_.back() > (1ull << 31)) {
    return Status::ResourceExhausted("combined group id space too large");
  }
  return multi;
}

void MultiMechanism::set_execution_context(const ExecutionContext* exec) {
  exec_ = exec;
  for (auto& sub : subs_) sub->set_execution_context(exec);
}

void MultiMechanism::EnableEstimateCache(size_t max_bytes) {
  // Each sub keeps a private cache: cache keys are (group, node, weight) and
  // sub-local group ids collide across subs. The composite itself holds no
  // cache (estimate_cache() stays null).
  for (auto& sub : subs_) sub->EnableEstimateCache(max_bytes / subs_.size());
  estimate_cache_.reset();
}

int MultiMechanism::SubOf(uint32_t group) const {
  for (int i = 0; i < static_cast<int>(subs_.size()); ++i) {
    if (group >= group_offset_[i] && group < group_offset_[i + 1]) return i;
  }
  return -1;
}

LdpReport MultiMechanism::EncodeUser(std::span<const uint32_t> values,
                                     Rng& rng) const {
  // One uniform draw assigns the user's cohort; the sub then consumes the
  // same stream, so the composite is exactly as deterministic as its parts.
  const uint32_t sub = static_cast<uint32_t>(rng.UniformInt(subs_.size()));
  LdpReport report = subs_[sub]->EncodeUser(values, rng);
  for (auto& entry : report.entries) {
    entry.group += static_cast<uint32_t>(group_offset_[sub]);
  }
  return report;
}

Result<int> MultiMechanism::Rebase(const LdpReport& report,
                                   LdpReport* local) const {
  if (report.entries.empty()) {
    return Status::InvalidArgument("empty multi-mechanism report");
  }
  const int sub = SubOf(report.entries[0].group);
  if (sub < 0) {
    return Status::OutOfRange("bad group id in multi-mechanism report");
  }
  *local = report;
  for (auto& entry : local->entries) {
    if (entry.group < group_offset_[sub] ||
        entry.group >= group_offset_[sub + 1]) {
      return Status::InvalidArgument(
          "multi-mechanism report spans sub-mechanisms");
    }
    entry.group -= static_cast<uint32_t>(group_offset_[sub]);
  }
  return sub;
}

Status MultiMechanism::ValidateReport(const LdpReport& report) const {
  LdpReport local;
  LDP_ASSIGN_OR_RETURN(const int sub, Rebase(report, &local));
  return subs_[sub]->ValidateReport(local);
}

Status MultiMechanism::AddReport(const LdpReport& report, uint64_t user) {
  // The sub's AddReport validates the rebased copy; nothing else does.
  LdpReport local;
  LDP_ASSIGN_OR_RETURN(const int sub, Rebase(report, &local));
  LDP_RETURN_NOT_OK(subs_[sub]->AddReport(local, user));
  ++num_reports_;
  return Status::OK();
}

Result<std::unique_ptr<Mechanism>> MultiMechanism::NewShard() const {
  const std::vector<MechanismKind> k = kinds();
  LDP_ASSIGN_OR_RETURN(auto shard, Create(schema_, params_, k));
  return {std::unique_ptr<Mechanism>(std::move(shard))};
}

Status MultiMechanism::Merge(Mechanism&& shard) {
  auto* other = dynamic_cast<MultiMechanism*>(&shard);
  if (other == nullptr ||
      other->subs_.size() != subs_.size()) {
    return Status::InvalidArgument("cannot merge an incompatible multi shard");
  }
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (other->subs_[i]->kind() != subs_[i]->kind()) {
      return Status::InvalidArgument("multi shard registered different kinds");
    }
  }
  for (size_t i = 0; i < subs_.size(); ++i) {
    LDP_RETURN_NOT_OK(subs_[i]->Merge(std::move(*other->subs_[i])));
  }
  num_reports_ += other->num_reports_;
  other->num_reports_ = 0;
  return Status::OK();
}

int MultiMechanism::SelectSub(std::span<const Interval> ranges) const {
  // Derive the query's workload shape and run the same per-mechanism cost
  // model the planner uses, so contract-path estimates (EstimateBox without
  // a plan) agree with planned execution.
  const auto& dims = schema_.sensitive_dims();
  WorkloadProfile profile;
  profile.query_dims = 0;
  double volume = 1.0;
  for (size_t i = 0; i < dims.size() && i < ranges.size(); ++i) {
    const double domain =
        static_cast<double>(schema_.attribute(dims[i]).domain_size);
    const double len = static_cast<double>(ranges[i].length());
    volume *= std::clamp(len / domain, 0.0, 1.0);
    if (len < domain) ++profile.query_dims;
  }
  profile.query_dims = std::max(profile.query_dims, 1);
  profile.query_volume = volume;
  const std::vector<MechanismKind> k = kinds();
  const std::vector<MechanismScore> scores =
      ScoreMechanisms(schema_, params_, profile, k);
  const MechanismKind chosen = ChooseMechanism(scores);
  for (int i = 0; i < static_cast<int>(subs_.size()); ++i) {
    if (subs_[i]->kind() == chosen) return i;
  }
  return 0;
}

Result<double> MultiMechanism::EstimateBox(std::span<const Interval> ranges,
                                           const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  return EstimateBoxWith(subs_[SelectSub(ranges)]->kind(), ranges, weights);
}

Result<double> MultiMechanism::EstimateBoxWith(
    MechanismKind kind, std::span<const Interval> ranges,
    const WeightVector& weights) const {
  for (const auto& sub : subs_) {
    if (sub->kind() != kind) continue;
    LDP_ASSIGN_OR_RETURN(const double cohort,
                         sub->EstimateBox(ranges, weights));
    return static_cast<double>(subs_.size()) * cohort;
  }
  return Status::InvalidArgument("mechanism not registered: " +
                                 MechanismKindName(kind));
}

Result<double> MultiMechanism::VarianceBound(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  // Contract path (no plan): bound through the cost model's pick, matching
  // EstimateBox above.
  return VarianceBoundWith(subs_[SelectSub(ranges)]->kind(), ranges, weights);
}

Result<double> MultiMechanism::VarianceBoundWith(
    MechanismKind kind, std::span<const Interval> ranges,
    const WeightVector& weights) const {
  for (const auto& sub : subs_) {
    if (sub->kind() != kind) continue;
    LDP_ASSIGN_OR_RETURN(const double cohort_bound,
                         sub->VarianceBound(ranges, weights));
    // Var(k x cohort estimate) = k^2 x cohort variance; the cohort bound is
    // already conservative (it uses the full population's M2).
    const double k = static_cast<double>(subs_.size());
    return k * k * cohort_bound;
  }
  return Status::InvalidArgument("mechanism not registered: " +
                                 MechanismKindName(kind));
}

std::vector<MechanismKind> MultiMechanism::kinds() const {
  std::vector<MechanismKind> out;
  out.reserve(subs_.size());
  for (const auto& sub : subs_) out.push_back(sub->kind());
  return out;
}

}  // namespace ldp
