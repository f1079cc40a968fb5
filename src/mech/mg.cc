#include "mech/mg.h"

#include <cmath>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

namespace {
/// Refuse to sum more cells than this per query (eq. 10 scans the box).
constexpr uint64_t kMaxBoxCells = 1ull << 25;
/// Cache per-cell estimates only for boxes at most this large: MG boxes can
/// cover millions of cells, which would churn the whole cache for entries
/// unlikely to be probed again before eviction.
constexpr uint64_t kMaxCachedBoxCells = 1ull << 16;
}  // namespace

MgMechanism::MgMechanism(const Schema& schema, const MechanismParams& params)
    : StoreBackedMechanism(schema, params, ReportShape::kOneEntry) {
  for (const int attr : schema.sensitive_dims()) {
    domains_.push_back(schema.attribute(attr).domain_size);
    total_cells_ *= schema.attribute(attr).domain_size;
  }
}

Status MgMechanism::Init() {
  LDP_ASSIGN_OR_RETURN(
      auto oracle,
      FrequencyOracle::Create(params_.fo_kind, params_.epsilon, total_cells_,
                              params_.hash_pool_size));
  store_.AddGroup(std::move(oracle));
  return Status::OK();
}

Result<std::unique_ptr<MgMechanism>> MgMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  uint64_t cells = 1;
  for (const int attr : schema.sensitive_dims()) {
    const uint64_t m = schema.attribute(attr).domain_size;
    if (cells > (1ull << 50) / m) {
      return Status::ResourceExhausted("MG cross-product domain too large");
    }
    cells *= m;
  }
  std::unique_ptr<MgMechanism> mech(new MgMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport MgMechanism::EncodeUser(std::span<const uint32_t> values,
                                  Rng& rng) const {
  LDP_CHECK_EQ(values.size(), domains_.size());
  uint64_t cell = 0;
  for (size_t i = 0; i < domains_.size(); ++i) {
    LDP_DCHECK(values[i] < domains_[i]);
    cell = cell * domains_[i] + values[i];
  }
  LdpReport report;
  report.entries.push_back({0, store_.Encode(0, cell, rng)});
  return report;
}

Result<double> MgMechanism::VarianceBound(std::span<const Interval> ranges,
                                          const WeightVector& weights) const {
  if (ranges.size() != domains_.size()) {
    return Status::InvalidArgument("VarianceBound needs one range per dim");
  }
  double box_cells = 1.0;
  for (size_t i = 0; i < domains_.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= domains_[i]) {
      return Status::OutOfRange("bad range for dimension " +
                                std::to_string(i));
    }
    box_cells *= static_cast<double>(ranges[i].length());
  }
  // Eq. (11): covered cells x the Prop. 4 noise term, plus <= M2 of data
  // terms.
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  return box_cells * 4.0 * m2 * e / ((e - 1.0) * (e - 1.0)) + m2;
}

Result<double> MgMechanism::EstimateBox(std::span<const Interval> ranges,
                                        const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  if (ranges.size() != domains_.size()) {
    return Status::InvalidArgument("EstimateBox needs one range per dim");
  }
  uint64_t box_cells = 1;
  for (size_t i = 0; i < domains_.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= domains_[i]) {
      return Status::OutOfRange("bad range for dimension " +
                                std::to_string(i));
    }
    box_cells *= ranges[i].length();
    if (box_cells > kMaxBoxCells) {
      return Status::ResourceExhausted("MG box covers too many cells");
    }
  }
  // Chunk-parallel sum of per-cell weighted estimates over the box (eq. 10),
  // streamed so huge boxes never materialize a full cell list: each fixed
  // chunk decodes its cells (last dimension fastest, matching the serial
  // odometer), runs one batched kernel call, and sums the per-cell estimates
  // in rank order — the same floating-point grouping as the per-cell serial
  // loop, so the sum is bit-identical for every thread count and cache
  // state. Small boxes additionally probe/fill the node-estimate cache.
  const FoAccumulator& acc = store_.accumulator(0);
  EstimateCache* cache =
      box_cells <= kMaxCachedBoxCells ? estimate_cache() : nullptr;
  const double total = exec().ParallelSumChunks(
      box_cells, kExecSumChunk, [&](uint64_t begin, uint64_t end) {
        const size_t len = end - begin;
        std::vector<uint64_t> cells(len);
        for (uint64_t rank = begin; rank < end; ++rank) {
          uint64_t rem = rank;
          uint64_t cell = 0;
          uint64_t stride = 1;
          for (size_t i = domains_.size(); i-- > 0;) {
            const uint64_t dim_len = ranges[i].length();
            cell += (ranges[i].lo + rem % dim_len) * stride;
            stride *= domains_[i];
            rem /= dim_len;
          }
          cells[rank - begin] = cell;
        }
        std::vector<double> estimates(len, 0.0);
        if (cache != nullptr) {
          std::vector<NodeRef> nodes(len);
          for (size_t k = 0; k < len; ++k) nodes[k] = {0, cells[k]};
          // Already inside a parallel chunk: run the batch serially.
          EstimateNodesBatched(store_, nodes, weights, num_reports_, cache,
                               SerialExecutionContext(), estimates);
        } else {
          acc.EstimateManyWeighted(cells, weights, estimates);
        }
        double sub = 0.0;
        for (const double e : estimates) sub += e;
        return sub;
      });
  return total;
}

}  // namespace ldp
