#include "mech/hdg.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

namespace {

/// Fallback population for granularity selection when no hint is given.
/// Fixed so the report layout is a pure function of (schema, params).
constexpr uint64_t kDefaultPopulationHint = 50000;

}  // namespace

void HdgGranularities(double epsilon, uint64_t population_hint, int num_dims,
                      uint32_t* g1, uint32_t* g2) {
  const double n = static_cast<double>(
      population_hint == 0 ? kDefaultPopulationHint : population_hint);
  const int d = std::max(num_dims, 1);
  const double m = d + 0.5 * d * (d - 1);
  const double e = std::exp(epsilon);
  // Yang et al.'s error-balancing working term: noise variance per cell is
  // ~ m e / (n (e-1)^2) of the squared total, while the uniformity error
  // shrinks with cell volume. Balancing the two gives g1 ~ s^(1/3) for 1-D
  // grids and g2 ~ s^(1/4) per dimension for 2-D grids.
  const double s = std::max(1.0, n * (e - 1.0) * (e - 1.0) / (m * e));
  *g1 = static_cast<uint32_t>(std::max(2.0, std::ceil(std::cbrt(s))));
  *g2 = static_cast<uint32_t>(std::max(2.0, std::ceil(std::pow(s, 0.25))));
}

HdgMechanism::HdgMechanism(const Schema& schema,
                           const MechanismParams& params)
    : StoreBackedMechanism(schema, params, ReportShape::kOneEntry) {
  num_dims_ = static_cast<int>(schema.sensitive_dims().size());
}

Status HdgMechanism::Init() {
  const auto& dims = schema_.sensitive_dims();
  const int d = num_dims_;
  const uint64_t num_grids =
      static_cast<uint64_t>(d) + static_cast<uint64_t>(d) * (d - 1) / 2;
  if (num_grids > 4096) {
    return Status::ResourceExhausted("too many dimension pairs for HDG");
  }
  uint32_t g1_raw = 2;
  uint32_t g2_raw = 2;
  HdgGranularities(params_.epsilon, params_.population_hint, d, &g1_raw,
                   &g2_raw);

  // Per-dim cell layout at granularity g: width = ceil(domain / g') with
  // g' = min(g, domain); the last cell may be narrower than width.
  const auto layout = [&](int pos, uint32_t g, uint32_t* width,
                          uint32_t* cells) {
    const uint64_t domain = schema_.attribute(dims[pos]).domain_size;
    const uint64_t gc = std::min<uint64_t>(g, std::max<uint64_t>(domain, 1));
    *width = static_cast<uint32_t>((domain + gc - 1) / gc);
    *cells = static_cast<uint32_t>((domain + *width - 1) / *width);
  };

  for (int i = 0; i < d; ++i) {
    GridSpec spec;
    spec.dims = {i};
    spec.width.resize(1);
    spec.cells.resize(1);
    layout(i, g1_raw, &spec.width[0], &spec.cells[0]);
    spec.num_cells = spec.cells[0];
    grids_.push_back(std::move(spec));
  }
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      GridSpec spec;
      spec.dims = {i, j};
      spec.width.resize(2);
      spec.cells.resize(2);
      layout(i, g2_raw, &spec.width[0], &spec.cells[0]);
      layout(j, g2_raw, &spec.width[1], &spec.cells[1]);
      spec.num_cells =
          static_cast<uint64_t>(spec.cells[0]) * spec.cells[1];
      grids_.push_back(std::move(spec));
    }
  }
  g1_ = g1_raw;
  g2_ = g2_raw;
  for (const GridSpec& spec : grids_) {
    LDP_ASSIGN_OR_RETURN(
        auto oracle,
        FrequencyOracle::Create(params_.fo_kind, params_.epsilon,
                                spec.num_cells, params_.hash_pool_size));
    store_.AddGroup(std::move(oracle));
  }
  return Status::OK();
}

Result<std::unique_ptr<HdgMechanism>> HdgMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  std::unique_ptr<HdgMechanism> mech(new HdgMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport HdgMechanism::EncodeUser(std::span<const uint32_t> values,
                                   Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), num_dims_);
  const uint32_t g = static_cast<uint32_t>(rng.UniformInt(grids_.size()));
  const GridSpec& spec = grids_[g];
  uint64_t cell = 0;
  for (size_t k = 0; k < spec.dims.size(); ++k) {
    cell = cell * spec.cells[k] + values[spec.dims[k]] / spec.width[k];
  }
  LdpReport report;
  report.entries.push_back({g, store_.Encode(static_cast<int>(g), cell, rng)});
  return report;
}

void HdgMechanism::TouchedCells(int g, std::span<const Interval> ranges,
                                std::vector<uint64_t>* cells,
                                std::vector<double>* fractions) const {
  const GridSpec& spec = grids_[g];
  // Per-dim overlapping cell indices with uniform-within-cell fractions.
  std::vector<std::vector<uint64_t>> dim_cells(spec.dims.size());
  std::vector<std::vector<double>> dim_fracs(spec.dims.size());
  for (size_t k = 0; k < spec.dims.size(); ++k) {
    const Interval& r = ranges[spec.dims[k]];
    const uint64_t domain =
        schema_.attribute(schema_.sensitive_dims()[spec.dims[k]]).domain_size;
    const uint64_t width = spec.width[k];
    const uint64_t first = r.lo / width;
    const uint64_t last = r.hi / width;
    for (uint64_t c = first; c <= last; ++c) {
      const uint64_t cell_lo = c * width;
      const uint64_t cell_hi = std::min(cell_lo + width - 1, domain - 1);
      const uint64_t ov_lo = std::max<uint64_t>(r.lo, cell_lo);
      const uint64_t ov_hi = std::min<uint64_t>(r.hi, cell_hi);
      dim_cells[k].push_back(c);
      dim_fracs[k].push_back(static_cast<double>(ov_hi - ov_lo + 1) /
                             static_cast<double>(cell_hi - cell_lo + 1));
    }
  }
  if (spec.dims.size() == 1) {
    for (size_t a = 0; a < dim_cells[0].size(); ++a) {
      cells->push_back(dim_cells[0][a]);
      fractions->push_back(dim_fracs[0][a]);
    }
    return;
  }
  for (size_t a = 0; a < dim_cells[0].size(); ++a) {
    for (size_t b = 0; b < dim_cells[1].size(); ++b) {
      cells->push_back(dim_cells[0][a] * spec.cells[1] + dim_cells[1][b]);
      fractions->push_back(dim_fracs[0][a] * dim_fracs[1][b]);
    }
  }
}

double HdgMechanism::CombineGrids(std::span<const int> grid_ids,
                                  std::span<const Interval> ranges,
                                  const WeightVector& weights) const {
  // Batch every grid's touched cells into one fan-out; the cache stores the
  // raw per-cell estimates, so entries are shared across queries. Fractions,
  // the Horvitz-Thompson scale m, and the response-count combination are
  // applied per call in fixed grid order — bit-identical for any thread
  // count and cache state.
  std::vector<NodeRef> nodes;
  std::vector<double> fractions;
  std::vector<size_t> grid_begin;
  for (const int g : grid_ids) {
    grid_begin.push_back(nodes.size());
    std::vector<uint64_t> cells;
    std::vector<double> fracs;
    TouchedCells(g, ranges, &cells, &fracs);
    for (size_t i = 0; i < cells.size(); ++i) {
      nodes.push_back({static_cast<uint64_t>(g), cells[i]});
      fractions.push_back(fracs[i]);
    }
  }
  grid_begin.push_back(nodes.size());
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodesBatched(store_, nodes, weights, num_reports_, estimate_cache(),
                       exec(), estimates);
  const double scale = static_cast<double>(grids_.size());
  // Response counts per grid are the combination weights.
  uint64_t total_responses = 0;
  for (const int g : grid_ids) {
    total_responses += store_.accumulator(g).num_reports();
  }
  if (total_responses == 0) return 0.0;
  double combined = 0.0;
  for (size_t gi = 0; gi < grid_ids.size(); ++gi) {
    double grid_estimate = 0.0;
    for (size_t i = grid_begin[gi]; i < grid_begin[gi + 1]; ++i) {
      grid_estimate += fractions[i] * estimates[i];
    }
    const uint64_t responses = store_.accumulator(grid_ids[gi]).num_reports();
    const double alpha = static_cast<double>(responses) /
                         static_cast<double>(total_responses);
    combined += alpha * scale * grid_estimate;
  }
  return combined;
}

Result<double> HdgMechanism::EstimateBox(std::span<const Interval> ranges,
                                         const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  if (static_cast<int>(ranges.size()) != num_dims_) {
    return Status::InvalidArgument("range count != sensitive dims");
  }
  const auto& dims = schema_.sensitive_dims();
  std::vector<int> constrained;
  for (int i = 0; i < num_dims_; ++i) {
    const uint64_t domain = schema_.attribute(dims[i]).domain_size;
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= domain) {
      return Status::OutOfRange("query range outside dimension domain");
    }
    if (ranges[i].lo != 0 || ranges[i].hi != domain - 1) {
      constrained.push_back(i);
    }
  }

  if (constrained.size() <= 2) {
    // Every grid whose dimension set covers the constrained set answers;
    // an unconstrained query uses the (cheapest) 1-D grids only.
    std::vector<int> covering;
    for (int g = 0; g < static_cast<int>(grids_.size()); ++g) {
      const auto& gd = grids_[g].dims;
      if (constrained.empty()) {
        if (gd.size() == 1) covering.push_back(g);
        continue;
      }
      bool covers = true;
      for (const int dim : constrained) {
        if (std::find(gd.begin(), gd.end(), dim) == gd.end()) {
          covers = false;
          break;
        }
      }
      if (covers) covering.push_back(g);
    }
    return CombineGrids(covering, ranges, weights);
  }

  // More than two constrained dimensions: greedy pair cover. Each factor's
  // selectivity is estimated independently (full range on the other dims)
  // and the factors combine multiplicatively — the product estimator the
  // grid approach uses beyond its materialized dimension pairs.
  const double total = weights.total();
  if (total <= 0.0) return 0.0;
  std::vector<Interval> full(ranges.begin(), ranges.end());
  for (int i = 0; i < num_dims_; ++i) {
    full[i] = {0, schema_.attribute(dims[i]).domain_size - 1};
  }
  double product = total;
  size_t pos = 0;
  while (pos < constrained.size()) {
    std::vector<Interval> factor_ranges = full;
    std::vector<int> factor_dims;
    factor_dims.push_back(constrained[pos]);
    if (pos + 1 < constrained.size()) factor_dims.push_back(constrained[pos + 1]);
    for (const int dim : factor_dims) factor_ranges[dim] = ranges[dim];
    pos += factor_dims.size();
    std::vector<int> covering;
    for (int g = 0; g < static_cast<int>(grids_.size()); ++g) {
      const auto& gd = grids_[g].dims;
      bool covers = true;
      for (const int dim : factor_dims) {
        if (std::find(gd.begin(), gd.end(), dim) == gd.end()) {
          covers = false;
          break;
        }
      }
      if (covers) covering.push_back(g);
    }
    const double factor = CombineGrids(covering, factor_ranges, weights);
    product *= std::clamp(factor / total, 0.0, 1.0);
  }
  return product;
}

Result<double> HdgMechanism::VarianceBound(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  if (static_cast<int>(ranges.size()) != num_dims_) {
    return Status::InvalidArgument("range count != sensitive dims");
  }
  // Conservative proxy in the shape of the HIO bound: the noisiest covering
  // grid touches t cells, each estimated from a 1/m cohort at full budget,
  // plus the sampling term. Product-estimator queries sum the per-factor
  // bounds (an overestimate of the propagated relative error).
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double m = static_cast<double>(grids_.size());
  const double fo_noise = 4.0 * e / ((e - 1.0) * (e - 1.0));
  const auto& dims = schema_.sensitive_dims();
  std::vector<int> constrained;
  for (int i = 0; i < num_dims_; ++i) {
    const uint64_t domain = schema_.attribute(dims[i]).domain_size;
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= domain) {
      return Status::OutOfRange("query range outside dimension domain");
    }
    if (ranges[i].lo != 0 || ranges[i].hi != domain - 1) {
      constrained.push_back(i);
    }
  }
  const int factors =
      constrained.size() <= 2
          ? 1
          : static_cast<int>((constrained.size() + 1) / 2);
  double worst_cells = 1.0;
  for (int g = 0; g < static_cast<int>(grids_.size()); ++g) {
    std::vector<uint64_t> cells;
    std::vector<double> fracs;
    TouchedCells(g, ranges, &cells, &fracs);
    worst_cells = std::max(worst_cells, static_cast<double>(cells.size()));
  }
  return static_cast<double>(factors) *
         (worst_cells * m * fo_noise * m2 + (2.0 * m - 1.0) * m2);
}

}  // namespace ldp
