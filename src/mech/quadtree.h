#ifndef LDPMDA_MECH_QUADTREE_H_
#define LDPMDA_MECH_QUADTREE_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// QuadTree mechanism (extension) — the space-partitioning alternative
/// Section 7 discusses: "Frequency oracles can be combined with QuadTree to
/// handle MDA queries ... However, QuadTree incurs larger errors."
///
/// For two ordinal dimensions padded to 2^h x 2^h, level j of the quadtree
/// splits *both* axes at granularity 2^j (a 2^j x 2^j grid). Following the
/// paper's level-sampling idea, each client picks one of the h+1 levels
/// uniformly and encodes its cell with the full budget eps.
///
/// A 2-dim range decomposes into maximal quadtree nodes; because both axes
/// refine together, an unaligned box needs O(2^h) nodes along its boundary —
/// linear in the domain size, versus HIO's polylogarithmic count. The
/// accompanying ablation bench demonstrates exactly this gap.
class QuadTreeMechanism : public StoreBackedMechanism {
 public:
  /// Requires exactly two sensitive dimensions, both ordinal.
  static Result<std::unique_ptr<QuadTreeMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kQuadTree; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  int height() const { return height_; }
  /// Grid side length 2^h.
  uint64_t side() const { return 1ull << height_; }

  /// The quadtree nodes (level, cell) covering the box exactly — exposed so
  /// callers and tests can see the decomposition-size blow-up on unaligned
  /// boxes (it grows linearly in the domain side).
  Result<std::vector<std::pair<int, uint64_t>>> DecomposeBox(
      std::span<const Interval> ranges) const;

 private:
  QuadTreeMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  void Decompose(int level, uint64_t x, uint64_t y, const Interval& rx,
                 const Interval& ry,
                 std::vector<std::pair<int, uint64_t>>* out) const;

  std::vector<uint64_t> domains_;  // real domain sizes (m1, m2)
  int height_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_QUADTREE_H_
