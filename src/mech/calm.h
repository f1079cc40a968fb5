#ifndef LDPMDA_MECH_CALM_H_
#define LDPMDA_MECH_CALM_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// The marginal order k CALM would materialize for this schema: the largest
/// k in {1, 2, 3} (capped at the dimension count) for which every size-k
/// marginal stays within the per-marginal cell budget and the marginal count
/// stays small enough to leave each cohort a useful fraction of the
/// population. Exposed so the planner's cost model and the mechanism agree
/// without constructing one.
int CalmMarginalOrder(const Schema& schema);

/// The CALM mechanism of Wang et al. ("Answering Multi-Dimensional Analytical
/// Queries under Local Differential Privacy" authors' companion line of work:
/// "Collecting and Analyzing Multidimensional Data with Local Differential
/// Privacy", PAPERS.md), adapted to this engine's report/estimation contract.
///
/// Layout: all C(d, k) size-k attribute marginals at full per-attribute
/// resolution, each flattened row-major into one frequency-oracle group.
/// k comes from CalmMarginalOrder — large enough to cover multi-attribute
/// predicates directly, small enough that marginal cells and marginal count
/// stay bounded.
///
/// Client: pick one marginal uniformly at random and report the user's
/// flattened value on it, spending the whole budget (user-partitioned
/// population; cohort inclusion probability 1/m).
///
/// Server: a box query constraining dimension set S with S contained in at
/// least one marginal is answered by a response-count weighted combination
/// over every covering marginal — the sub-box on S crossed with the full
/// range of the marginal's other attributes, Horvitz-Thompson scaled by m.
/// Full per-attribute resolution means cell boundaries align with query
/// ranges exactly (no uniformity assumption). Queries constraining more
/// dimensions than k fall back to a greedy marginal cover and combine the
/// per-cover-factor selectivities multiplicatively.
class CalmMechanism : public StoreBackedMechanism {
 public:
  static Result<std::unique_ptr<CalmMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kCalm; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  /// Materialized marginal order k and marginal count C(d, k).
  int marginal_order() const { return order_; }
  int num_marginals() const { return static_cast<int>(marginals_.size()); }

 private:
  /// One size-k marginal: sensitive-dim positions (ascending) plus the
  /// row-major stride layout of its flattened cross product.
  struct MarginalSpec {
    std::vector<int> dims;
    std::vector<uint64_t> domain;  // per-dim domain size
    uint64_t num_cells = 1;
  };

  CalmMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  /// Flattened cells of marginal `m` inside `ranges` (sub-box on the
  /// marginal's constrained dims, full range elsewhere).
  void SubBoxCells(int m, std::span<const Interval> ranges,
                   std::vector<uint64_t>* cells) const;

  /// Response-count weighted combination over `marginal_ids` of the
  /// Horvitz-Thompson-scaled sub-box estimates.
  double CombineMarginals(std::span<const int> marginal_ids,
                          std::span<const Interval> ranges,
                          const WeightVector& weights) const;

  std::vector<MarginalSpec> marginals_;
  int order_ = 1;
  int num_dims_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_CALM_H_
