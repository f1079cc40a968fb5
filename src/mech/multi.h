#ifndef LDPMDA_MECH_MULTI_H_
#define LDPMDA_MECH_MULTI_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// A composite mechanism hosting several registered mechanisms over one
/// report population, so a planner can choose the estimator per query.
///
/// Budget accounting is user-partitioned: each user is assigned to exactly
/// one registered mechanism uniformly at random and spends the *whole*
/// budget eps on that mechanism's report — no budget splitting, so every
/// sub-mechanism keeps its single-mechanism accuracy on its cohort. A
/// cohort is a 1/k uniform sample of the population (k = number of
/// registered mechanisms), so population estimates are the sub-mechanism's
/// cohort estimate scaled by k (Horvitz-Thompson; see DESIGN.md §13).
///
/// Reports self-describe their owner: sub-mechanism i's group ids are
/// offset into a single id space, entry group g belongs to the sub whose
/// [offset_i, offset_{i+1}) range contains it.
class MultiMechanism : public Mechanism {
 public:
  /// `kinds` lists the registered mechanisms (at least one, no duplicates —
  /// per-plan dispatch addresses sub-mechanisms by kind).
  static Result<std::unique_ptr<MultiMechanism>> Create(
      const Schema& schema, const MechanismParams& params,
      std::span<const MechanismKind> kinds);

  /// The primary (first-registered) mechanism's kind.
  MechanismKind kind() const override { return subs_[0]->kind(); }
  uint64_t NumReportGroups() const override { return group_offset_.back(); }

  void set_execution_context(const ExecutionContext* exec) override;
  void EnableEstimateCache(size_t max_bytes) override;

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Status AddReport(const LdpReport& report, uint64_t user) override;
  Status ValidateReport(const LdpReport& report) const override;
  Result<std::unique_ptr<Mechanism>> NewShard() const override;
  Status Merge(Mechanism&& shard) override;

  /// Population estimate through the cost-model-selected sub-mechanism:
  /// scores the registered kinds against the query's shape (constrained
  /// dims, volume) and dispatches to the winner. Deterministic.
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  /// Population estimate through a specific registered mechanism — the
  /// executor's per-plan dispatch point: k x the sub's cohort estimate.
  Result<double> EstimateBoxWith(MechanismKind kind,
                                 std::span<const Interval> ranges,
                                 const WeightVector& weights) const;

  /// Variance bound through a specific registered mechanism: k^2 x the
  /// sub's cohort bound. The per-plan companion of EstimateBoxWith, so a
  /// confidence bound describes the mechanism the plan actually executed,
  /// whichever sub VarianceBound's own shape-based selection would pick.
  Result<double> VarianceBoundWith(MechanismKind kind,
                                   std::span<const Interval> ranges,
                                   const WeightVector& weights) const;

  int num_sub_mechanisms() const { return static_cast<int>(subs_.size()); }
  const Mechanism& sub(int i) const { return *subs_[i]; }
  std::vector<MechanismKind> kinds() const;

 private:
  MultiMechanism(const Schema& schema, const MechanismParams& params)
      : Mechanism(schema, params) {}

  /// Sub index owning group id `group`, or -1.
  int SubOf(uint32_t group) const;
  /// The owning sub's index, with `local` set to a copy of `report` whose
  /// group ids are rebased into that sub's id space. Rejects empty reports,
  /// unowned group ids and reports spanning two subs.
  Result<int> Rebase(const LdpReport& report, LdpReport* local) const;
  /// The cost model's pick for this query shape (index into subs_).
  int SelectSub(std::span<const Interval> ranges) const;

  std::vector<std::unique_ptr<Mechanism>> subs_;
  /// size k+1; sub i owns groups [group_offset_[i], group_offset_[i+1]).
  std::vector<uint64_t> group_offset_;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_MULTI_H_
