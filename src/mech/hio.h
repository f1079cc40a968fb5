#ifndef LDPMDA_MECH_HIO_H_
#define LDPMDA_MECH_HIO_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// The d-dim HI-Optimized mechanism (A_HIO, P̄_HIO) — Algorithm 2
/// (Sections 4.2 and 5.1.3).
///
/// Client: pick one of the Π_i (h_i + 1) d-dim levels uniformly at random and
/// encode only the d-dim interval on that level, spending the *whole* budget
/// eps on it.
///
/// Server: users reporting level L form a 1/Π(h_i+1) random sample; each
/// sub-query of the box decomposition is answered by the sampled weighted
/// estimator f̃ = Π(h_i+1) * f̄_{S_L} (eq. 24) and the estimates are summed.
/// Theorem 9 shows this beats HI by orders of magnitude.
///
/// Note: we implement the d-dimensional Algorithm 2 uniformly, so for d = 1
/// the client samples from levels {0, ..., h} (Algorithm 1 samples from
/// {1, ..., h}); the error bound of Theorem 9 with d = 1 applies.
class HioMechanism : public StoreBackedMechanism {
 public:
  static Result<std::unique_ptr<HioMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHio; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  const LevelGrid& grid() const { return *grid_; }

  /// Sampled estimate (eq. 24) of the weighted frequency of one d-dim cell:
  /// Π(h_i+1) * f̄_{S_level}(cell). Exposed for the consistency extension.
  double EstimateCell(uint64_t level_flat, uint64_t cell,
                      const WeightVector& weights) const;

  /// Batched EstimateCell over many cells of one level: one kernel pass (or
  /// histogram fetch) amortized across the whole set, with cache probes
  /// when the estimate cache is enabled. out[i] is bit-identical to
  /// EstimateCell(level_flat, cells[i], weights). `out.size()` must equal
  /// `cells.size()`.
  void EstimateCells(uint64_t level_flat, std::span<const uint64_t> cells,
                     const WeightVector& weights,
                     std::span<double> out) const;

 private:
  HioMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  std::unique_ptr<LevelGrid> grid_;
  std::vector<std::vector<int>> levels_of_tuple_;
  int num_dims_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HIO_H_
