#ifndef LDPMDA_MECH_MG_H_
#define LDPMDA_MECH_MG_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// The marginal-based baseline (A_MG, P̄_MG) — Section 3.4.
///
/// Client: encode the user's full d-dim value combination (one cell of the
/// m_1 x ... x m_d cross product) with a single frequency-oracle report at
/// budget eps — the LDP marginal over all sensitive dimensions.
///
/// Server: answer a box query by summing the weighted frequency estimate of
/// every cell covered by the box (eq. 10). The error is proportional to the
/// number of covered cells (eq. 11), i.e. O(m^d) in the worst case — the
/// behaviour HI/HIO are designed to beat.
class MgMechanism : public StoreBackedMechanism {
 public:
  static Result<std::unique_ptr<MgMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kMg; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  uint64_t total_cells() const { return total_cells_; }

 private:
  MgMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  std::vector<uint64_t> domains_;
  uint64_t total_cells_ = 1;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_MG_H_
