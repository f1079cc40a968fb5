#ifndef LDPMDA_MECH_HAAR_H_
#define LDPMDA_MECH_HAAR_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// Haar-wavelet mechanism (extension) — the Privelet-style alternative
/// Section 7 discusses: "Coefficients in wavelet transforms can be encoded
/// using frequency oracles. Each user randomly selects a level in the
/// decomposition tree ... However, as each level has a different weight in
/// the estimation, it is unclear how to partition users across levels to
/// optimize the utility."
///
/// We implement exactly that construction for one ordinal dimension padded
/// to D = 2^h values. Clients sample a level j in {0..h} uniformly and
/// report their dyadic block at granularity 2^j with the full budget (the
/// same reports as binary HIO); the server reconstructs range queries in the
/// (unnormalized) Haar basis:
///
///   q([l,r]) = <x, phi> W/D + sum_{j,k} <x, psi_{j,k}>
///              * (F_{j+1,2k} - F_{j+1,2k+1}) / |block(j,k)|,
///
/// where x is the range's indicator, F_{j,.} are the level-j block sums
/// estimated from the level-j sample, and a contiguous range has at most two
/// non-zero detail coefficients per level. The differing coefficient weights
/// <x, psi>/|block| are the utility question the paper raises; the wavelet
/// ablation bench measures it against HIO empirically.
class HaarMechanism : public StoreBackedMechanism {
 public:
  /// Requires exactly one sensitive dimension and it must be ordinal.
  static Result<std::unique_ptr<HaarMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHaar; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  int height() const { return height_; }
  uint64_t padded_size() const { return 1ull << height_; }

  /// The non-zero Haar terms of a range's reconstruction — exposed for
  /// tests. Each term is (level j of the children, left child block index,
  /// coefficient <x, psi>/blocksize); the scaling term <x, phi>/D comes
  /// first with level = 0 and block = 0.
  struct HaarTerm {
    int child_level = 0;
    uint64_t left_child = 0;
    double coefficient = 0.0;
  };
  std::vector<HaarTerm> DecomposeRange(const Interval& range) const;

 private:
  HaarMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  /// Estimated level-j block sum (scaled by the inverse sampling rate).
  double BlockEstimate(int level, uint64_t block,
                       const WeightVector& weights) const;

  uint64_t domain_ = 0;  // real domain size m
  int height_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HAAR_H_
