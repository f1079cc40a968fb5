#include "mech/calm.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

namespace {

/// Largest per-marginal flattened domain CALM will materialize; beyond this
/// the frequency-oracle noise per cell dwarfs any reconstruction benefit.
constexpr uint64_t kMaxMarginalCells = 4096;
/// Largest marginal count; beyond this each cohort is too small a slice of
/// the population to estimate from.
constexpr uint64_t kMaxMarginals = 64;

uint64_t Binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  uint64_t r = 1;
  for (int i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// Enumerates all ascending size-k subsets of {0, ..., d-1} in
/// lexicographic order.
void ForEachSubset(int d, int k,
                   const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> subset(k);
  for (int i = 0; i < k; ++i) subset[i] = i;
  while (true) {
    fn(subset);
    int i = k - 1;
    while (i >= 0 && subset[i] == d - k + i) --i;
    if (i < 0) return;
    ++subset[i];
    for (int j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
  }
}

}  // namespace

int CalmMarginalOrder(const Schema& schema) {
  const auto& dims = schema.sensitive_dims();
  const int d = static_cast<int>(dims.size());
  int order = 1;
  for (int k = 2; k <= std::min(d, 3); ++k) {
    if (Binomial(d, k) > kMaxMarginals) break;
    uint64_t worst = 0;
    bool feasible = true;
    ForEachSubset(d, k, [&](const std::vector<int>& subset) {
      uint64_t cells = 1;
      for (const int pos : subset) {
        const uint64_t domain = schema.attribute(dims[pos]).domain_size;
        if (cells > kMaxMarginalCells / std::max<uint64_t>(domain, 1) + 1) {
          feasible = false;
        }
        cells *= std::max<uint64_t>(domain, 1);
      }
      worst = std::max(worst, cells);
    });
    if (!feasible || worst > kMaxMarginalCells) break;
    order = k;
  }
  return order;
}

CalmMechanism::CalmMechanism(const Schema& schema,
                             const MechanismParams& params)
    : StoreBackedMechanism(schema, params, ReportShape::kOneEntry) {
  num_dims_ = static_cast<int>(schema.sensitive_dims().size());
}

Status CalmMechanism::Init() {
  const auto& dims = schema_.sensitive_dims();
  const int d = num_dims_;
  if (static_cast<uint64_t>(d) > kMaxMarginals) {
    return Status::ResourceExhausted("too many sensitive dimensions for CALM");
  }
  order_ = CalmMarginalOrder(schema_);
  ForEachSubset(d, order_, [&](const std::vector<int>& subset) {
    MarginalSpec spec;
    spec.dims = subset;
    for (const int pos : subset) {
      spec.domain.push_back(schema_.attribute(dims[pos]).domain_size);
      spec.num_cells *= spec.domain.back();
    }
    marginals_.push_back(std::move(spec));
  });
  for (const MarginalSpec& spec : marginals_) {
    LDP_ASSIGN_OR_RETURN(
        auto oracle,
        FrequencyOracle::Create(params_.fo_kind, params_.epsilon,
                                spec.num_cells, params_.hash_pool_size));
    store_.AddGroup(std::move(oracle));
  }
  return Status::OK();
}

Result<std::unique_ptr<CalmMechanism>> CalmMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  std::unique_ptr<CalmMechanism> mech(new CalmMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport CalmMechanism::EncodeUser(std::span<const uint32_t> values,
                                    Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), num_dims_);
  const uint32_t m = static_cast<uint32_t>(rng.UniformInt(marginals_.size()));
  const MarginalSpec& spec = marginals_[m];
  uint64_t cell = 0;
  for (size_t k = 0; k < spec.dims.size(); ++k) {
    cell = cell * spec.domain[k] + values[spec.dims[k]];
  }
  LdpReport report;
  report.entries.push_back({m, store_.Encode(static_cast<int>(m), cell, rng)});
  return report;
}

void CalmMechanism::SubBoxCells(int m, std::span<const Interval> ranges,
                                std::vector<uint64_t>* cells) const {
  const MarginalSpec& spec = marginals_[m];
  // Row-major enumeration of the sub-box: odometer over the marginal's dims.
  std::vector<uint64_t> lo(spec.dims.size()), hi(spec.dims.size());
  for (size_t k = 0; k < spec.dims.size(); ++k) {
    lo[k] = ranges[spec.dims[k]].lo;
    hi[k] = ranges[spec.dims[k]].hi;
  }
  std::vector<uint64_t> cur = lo;
  while (true) {
    uint64_t cell = 0;
    for (size_t k = 0; k < spec.dims.size(); ++k) {
      cell = cell * spec.domain[k] + cur[k];
    }
    cells->push_back(cell);
    int k = static_cast<int>(spec.dims.size()) - 1;
    while (k >= 0 && cur[k] == hi[k]) {
      cur[k] = lo[k];
      --k;
    }
    if (k < 0) return;
    ++cur[k];
  }
}

double CalmMechanism::CombineMarginals(std::span<const int> marginal_ids,
                                       std::span<const Interval> ranges,
                                       const WeightVector& weights) const {
  // One batched fan-out over every covering marginal's sub-box cells; the
  // cache stores the raw per-cell estimates. The Horvitz-Thompson scale and
  // the response-count combination are applied per call in fixed marginal
  // order — bit-identical for any thread count and cache state.
  std::vector<NodeRef> nodes;
  std::vector<size_t> marginal_begin;
  for (const int m : marginal_ids) {
    marginal_begin.push_back(nodes.size());
    std::vector<uint64_t> cells;
    SubBoxCells(m, ranges, &cells);
    for (const uint64_t cell : cells) {
      nodes.push_back({static_cast<uint64_t>(m), cell});
    }
  }
  marginal_begin.push_back(nodes.size());
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodesBatched(store_, nodes, weights, num_reports_, estimate_cache(),
                       exec(), estimates);
  const double scale = static_cast<double>(marginals_.size());
  // Response counts per marginal are the combination weights.
  uint64_t total_responses = 0;
  for (const int m : marginal_ids) {
    total_responses += store_.accumulator(m).num_reports();
  }
  if (total_responses == 0) return 0.0;
  double combined = 0.0;
  for (size_t mi = 0; mi < marginal_ids.size(); ++mi) {
    double marginal_estimate = 0.0;
    for (size_t i = marginal_begin[mi]; i < marginal_begin[mi + 1]; ++i) {
      marginal_estimate += estimates[i];
    }
    const uint64_t responses =
        store_.accumulator(marginal_ids[mi]).num_reports();
    const double alpha = static_cast<double>(responses) /
                         static_cast<double>(total_responses);
    combined += alpha * scale * marginal_estimate;
  }
  return combined;
}

Result<double> CalmMechanism::EstimateBox(std::span<const Interval> ranges,
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

  const auto covering_of = [&](const std::vector<int>& subset) {
    std::vector<int> covering;
    for (int m = 0; m < static_cast<int>(marginals_.size()); ++m) {
      const auto& md = marginals_[m].dims;
      bool covers = true;
      for (const int dim : subset) {
        if (std::find(md.begin(), md.end(), dim) == md.end()) {
          covers = false;
          break;
        }
      }
      if (covers) covering.push_back(m);
    }
    return covering;
  };

  if (constrained.empty()) {
    // Unconstrained total: one marginal suffices; use the smallest (fewest
    // cells, ties to the lowest id) to keep the fan-out minimal.
    int best = 0;
    for (int m = 1; m < static_cast<int>(marginals_.size()); ++m) {
      if (marginals_[m].num_cells < marginals_[best].num_cells) best = m;
    }
    const std::vector<int> ids = {best};
    return CombineMarginals(ids, ranges, weights);
  }

  const std::vector<int> covering = covering_of(constrained);
  if (!covering.empty()) {
    return CombineMarginals(covering, ranges, weights);
  }

  // The constrained set is wider than the materialized order k: greedily
  // cover it with marginals (most uncovered dims first, ties to the lowest
  // id) and combine the per-factor selectivities multiplicatively.
  const double total = weights.total();
  if (total <= 0.0) return 0.0;
  std::vector<Interval> full(ranges.begin(), ranges.end());
  for (int i = 0; i < num_dims_; ++i) {
    full[i] = {0, schema_.attribute(dims[i]).domain_size - 1};
  }
  std::vector<int> uncovered = constrained;
  double product = total;
  while (!uncovered.empty()) {
    int best = -1;
    int best_overlap = 0;
    for (int m = 0; m < static_cast<int>(marginals_.size()); ++m) {
      const auto& md = marginals_[m].dims;
      int overlap = 0;
      for (const int dim : uncovered) {
        if (std::find(md.begin(), md.end(), dim) != md.end()) ++overlap;
      }
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = m;
      }
    }
    LDP_CHECK(best >= 0);  // every dim lies in some marginal
    std::vector<int> factor_dims;
    for (const int dim : uncovered) {
      const auto& md = marginals_[best].dims;
      if (std::find(md.begin(), md.end(), dim) != md.end()) {
        factor_dims.push_back(dim);
      }
    }
    std::vector<Interval> factor_ranges = full;
    for (const int dim : factor_dims) factor_ranges[dim] = ranges[dim];
    const std::vector<int> covering_factor = covering_of(factor_dims);
    const double factor =
        CombineMarginals(covering_factor, factor_ranges, weights);
    product *= std::clamp(factor / total, 0.0, 1.0);
    std::vector<int> next;
    for (const int dim : uncovered) {
      if (std::find(factor_dims.begin(), factor_dims.end(), dim) ==
          factor_dims.end()) {
        next.push_back(dim);
      }
    }
    uncovered = std::move(next);
  }
  return product;
}

Result<double> CalmMechanism::VarianceBound(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  if (static_cast<int>(ranges.size()) != num_dims_) {
    return Status::InvalidArgument("range count != sensitive dims");
  }
  const auto& dims = schema_.sensitive_dims();
  int constrained = 0;
  for (int i = 0; i < num_dims_; ++i) {
    const uint64_t domain = schema_.attribute(dims[i]).domain_size;
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= domain) {
      return Status::OutOfRange("query range outside dimension domain");
    }
    if (ranges[i].lo != 0 || ranges[i].hi != domain - 1) ++constrained;
  }
  // Conservative proxy shaped like the HIO bound: the largest covering
  // marginal sub-box touches t cells, each estimated from a 1/m cohort at
  // full budget, plus the cohort-sampling term; product-estimator queries
  // sum the per-factor bounds.
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double m = static_cast<double>(marginals_.size());
  const double fo_noise = 4.0 * e / ((e - 1.0) * (e - 1.0));
  const int factors =
      constrained <= order_
          ? 1
          : (constrained + order_ - 1) / order_;
  double worst_cells = 1.0;
  for (int g = 0; g < static_cast<int>(marginals_.size()); ++g) {
    std::vector<uint64_t> cells;
    SubBoxCells(g, ranges, &cells);
    worst_cells = std::max(worst_cells, static_cast<double>(cells.size()));
  }
  return static_cast<double>(factors) *
         (worst_cells * m * fo_noise * m2 + (2.0 * m - 1.0) * m2);
}

}  // namespace ldp
