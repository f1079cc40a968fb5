#include "mech/hio.h"

#include <cmath>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

HioMechanism::HioMechanism(const Schema& schema,
                           const MechanismParams& params)
    : StoreBackedMechanism(schema, params, ReportShape::kOneEntry) {
  grid_ = std::make_unique<LevelGrid>(BuildHierarchies(schema, params.fanout));
  num_dims_ = grid_->num_dims();
}

Status HioMechanism::Init() {
  const uint64_t tuples = grid_->num_level_tuples();
  if (tuples > (1ull << 24)) {
    return Status::ResourceExhausted("too many d-dim levels for HIO — use SC");
  }
  levels_of_tuple_.resize(tuples);
  for (uint64_t flat = 0; flat < tuples; ++flat) {
    grid_->LevelsOf(flat, &levels_of_tuple_[flat]);
    LDP_ASSIGN_OR_RETURN(
        auto oracle,
        FrequencyOracle::Create(params_.fo_kind, params_.epsilon,
                                grid_->NumCells(levels_of_tuple_[flat]),
                                params_.hash_pool_size));
    store_.AddGroup(std::move(oracle));
  }
  return Status::OK();
}

Result<std::unique_ptr<HioMechanism>> HioMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  std::unique_ptr<HioMechanism> mech(new HioMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport HioMechanism::EncodeUser(std::span<const uint32_t> values,
                                   Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), num_dims_);
  // Line 1 of Algorithm 2: pick a random d-dim level.
  const uint32_t flat =
      static_cast<uint32_t>(rng.UniformInt(levels_of_tuple_.size()));
  const uint64_t cell = grid_->CellOfValues(levels_of_tuple_[flat], values);
  LdpReport report;
  report.entries.push_back({flat, store_.Encode(flat, cell, rng)});
  return report;
}

double HioMechanism::EstimateCell(uint64_t level_flat, uint64_t cell,
                                  const WeightVector& weights) const {
  // Eq. (24): scale the group estimate up by the inverse sampling rate.
  const double scale = static_cast<double>(grid_->num_level_tuples());
  return scale * store_.accumulator(static_cast<int>(level_flat))
                     .EstimateWeighted(cell, weights);
}

void HioMechanism::EstimateCells(uint64_t level_flat,
                                 std::span<const uint64_t> cells,
                                 const WeightVector& weights,
                                 std::span<double> out) const {
  LDP_CHECK_EQ(cells.size(), out.size());
  std::vector<NodeRef> nodes(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    nodes[i] = {level_flat, cells[i]};
  }
  // The cache stores the raw (unscaled) group estimates, so entries are
  // shared with EstimateBox; the sampling scale is applied per call — the
  // same multiply EstimateCell performs, hence bit-identical results.
  EstimateNodesBatched(store_, nodes, weights, num_reports_, estimate_cache(),
                       exec(), out);
  const double scale = static_cast<double>(grid_->num_level_tuples());
  for (double& o : out) o *= scale;
}

Result<double> HioMechanism::VarianceBound(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  std::vector<SubQuery> sub_queries;
  LDP_RETURN_NOT_OK(grid_->DecomposeBox(ranges, &sub_queries));
  // Prop. 5 with sampling rate 1/L, L = number of d-dim levels: per
  // sub-query noise 4 L M2 e^eps/(e^eps-1)^2; the sampling terms
  // (2L-1) M2(v) over disjoint cells total <= (2L-1) M2.
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double levels = static_cast<double>(grid_->num_level_tuples());
  return static_cast<double>(sub_queries.size()) * 4.0 * levels * m2 * e /
             ((e - 1.0) * (e - 1.0)) +
         (2.0 * levels - 1.0) * m2;
}

Result<double> HioMechanism::EstimateBox(std::span<const Interval> ranges,
                                         const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  std::vector<SubQuery> sub_queries;
  LDP_RETURN_NOT_OK(grid_->DecomposeBox(ranges, &sub_queries));
  // Sub-queries of the same level batch into one kernel pass each (after a
  // cache probe); scaling each estimate and summing in index order matches
  // the serial per-sub-query loop bit for bit, for any thread count and
  // cache state.
  std::vector<NodeRef> nodes(sub_queries.size());
  for (size_t i = 0; i < sub_queries.size(); ++i) {
    nodes[i] = {sub_queries[i].level_flat, sub_queries[i].cell};
  }
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodesBatched(store_, nodes, weights, num_reports_, estimate_cache(),
                       exec(), estimates);
  const double scale = static_cast<double>(grid_->num_level_tuples());
  double total = 0.0;
  for (const double e : estimates) total += scale * e;
  return total;
}

}  // namespace ldp
