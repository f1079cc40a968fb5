#ifndef LDPMDA_MECH_HDG_H_
#define LDPMDA_MECH_HDG_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// Granularities the hybrid-dimensional-grid mechanism would pick for a
/// population of `population_hint` users (0 = the 50000 default) at budget
/// `epsilon` with `num_dims` sensitive dimensions. Exposed so the planner's
/// cost model and the mechanism agree on the layout without constructing one.
/// g1 is the 1-D grid granularity, g2 the per-dimension granularity of the
/// 2-D grids; both are >= 2 and are clamped to each dimension's domain at
/// construction time.
void HdgGranularities(double epsilon, uint64_t population_hint, int num_dims,
                      uint32_t* g1, uint32_t* g2);

/// The hybrid-dimensional-grid mechanism of Yang et al. ("Answering
/// Multi-Dimensional Range Queries under Local Differential Privacy",
/// PAPERS.md), adapted to this engine's report/estimation contract.
///
/// Layout: one coarse 1-D grid per sensitive dimension plus one 2-D grid per
/// dimension pair — m = d + C(d,2) grids total. Granularities balance noise
/// error against the uniformity-assumption error inside cells: with s =
/// N (e^eps - 1)^2 / (m e^eps), the 1-D grids use g1 = ceil(s^(1/3)) cells
/// and the 2-D grids g2 = ceil(s^(1/4)) cells per dimension (each clamped to
/// [2, domain]). N comes from MechanismParams::population_hint so the layout
/// never depends on the observed report count.
///
/// Client: pick one of the m grids uniformly at random and report the cell
/// containing the user's value(s) on that grid, spending the whole budget.
///
/// Server: a box query on constrained dimension set S is answered by a
/// response-count weighted combination of the estimates from every grid
/// whose dimension set covers S (|S| <= 2), scaling each grid's cohort
/// estimate by m (Horvitz-Thompson, cohort inclusion probability 1/m).
/// Cells partially overlapped by the query range contribute their estimate
/// times the overlap fraction (uniformity within a cell) — so unlike the
/// paper's HIO, HDG estimates carry a data-dependent approximation error in
/// exchange for far fewer reported cells per user. Queries constraining
/// more than two dimensions fall back to a greedy pair cover and combine
/// the per-cover-factor selectivities multiplicatively.
class HdgMechanism : public StoreBackedMechanism {
 public:
  static Result<std::unique_ptr<HdgMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHdg; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const override;
  Result<double> VarianceBound(std::span<const Interval> ranges,
                               const WeightVector& weights) const override;

  /// Number of grids m = d + C(d,2).
  int num_grids() const { return static_cast<int>(grids_.size()); }
  /// Chosen granularities after domain clamping, for tests/EXPLAIN.
  uint32_t g1() const { return g1_; }
  uint32_t g2() const { return g2_; }

 private:
  /// One grid: 1 or 2 sensitive-dim positions plus its per-dim cell layout.
  struct GridSpec {
    std::vector<int> dims;        // positions into Schema::sensitive_dims()
    std::vector<uint32_t> width;  // value width of one cell, per dim
    std::vector<uint32_t> cells;  // number of cells, per dim
    uint64_t num_cells = 1;       // product of cells[]
  };

  HdgMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  /// Cells of grid `g` overlapping `ranges` (indexed by sensitive-dim
  /// position), with the covered fraction of each cell under the
  /// within-cell uniformity assumption.
  void TouchedCells(int g, std::span<const Interval> ranges,
                    std::vector<uint64_t>* cells,
                    std::vector<double>* fractions) const;

  /// Response-count weighted combination over `grid_ids` of the
  /// Horvitz-Thompson-scaled box estimates; `ranges` is the full
  /// per-sensitive-dim range vector.
  double CombineGrids(std::span<const int> grid_ids,
                      std::span<const Interval> ranges,
                      const WeightVector& weights) const;

  std::vector<GridSpec> grids_;
  uint32_t g1_ = 2;
  uint32_t g2_ = 2;
  int num_dims_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HDG_H_
