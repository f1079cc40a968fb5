#include "fo/frequency_oracle.h"

#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "fo/grr.h"
#include "fo/hadamard.h"
#include "fo/olh.h"
#include "fo/oue.h"

namespace ldp {

const FoCacheCounters& FoCacheMetrics() {
  static const FoCacheCounters counters = {
      GlobalMetrics().counter("fo_cache.hits"),
      GlobalMetrics().counter("fo_cache.builds"),
      GlobalMetrics().counter("fo_cache.stale_rebuilds"),
      GlobalMetrics().counter("fo_cache.evictions"),
      GlobalMetrics().histogram("fo_cache.histogram_build_ns"),
  };
  return counters;
}

const FoEstimateCounters& FoEstimateMetrics() {
  static const FoEstimateCounters counters = {
      GlobalMetrics().counter("estimate.report_values"),
  };
  return counters;
}

std::string FoKindName(FoKind kind) {
  switch (kind) {
    case FoKind::kOlh:
      return "olh";
    case FoKind::kGrr:
      return "grr";
    case FoKind::kOue:
      return "oue";
    case FoKind::kHr:
      return "hr";
    case FoKind::kAdaptive:
      return "adaptive";
  }
  return "?";
}

Result<FoKind> FoKindFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "olh") return FoKind::kOlh;
  if (lower == "grr") return FoKind::kGrr;
  if (lower == "oue") return FoKind::kOue;
  if (lower == "hr" || lower == "hadamard") return FoKind::kHr;
  if (lower == "adaptive") return FoKind::kAdaptive;
  return Status::InvalidArgument("unknown frequency oracle: " +
                                 std::string(name));
}

namespace {
std::atomic<uint64_t> g_next_weight_id{1};
}  // namespace

void FoAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                         const WeightVector& w,
                                         std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = EstimateWeighted(values[i], w);
  }
}

void FoAccumulator::EstimateBlock(std::span<const uint64_t> values,
                                  const WeightVector& w, uint64_t block,
                                  std::span<double> partial) const {
  LDP_CHECK_EQ(block, 0u);
  EstimateManyWeighted(values, w, partial);
}

void FoAccumulator::FinishBlocks(std::span<const uint64_t>,
                                 const WeightVector&, std::span<double>) const {
}

WeightVector::WeightVector(std::vector<double> weights)
    : id_(g_next_weight_id.fetch_add(1)), weights_(std::move(weights)) {
  for (const double w : weights_) {
    total_ += w;
    sum_squares_ += w * w;
    all_ones_ = all_ones_ && w == 1.0;
  }
}

WeightVector WeightVector::Ones(uint64_t n) {
  return WeightVector(std::vector<double>(n, 1.0));
}

Result<std::unique_ptr<FrequencyOracle>> FrequencyOracle::Create(
    FoKind kind, double epsilon, uint64_t domain_size,
    uint32_t hash_pool_size) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (domain_size == 0) {
    return Status::InvalidArgument("domain_size must be positive");
  }
  if (kind == FoKind::kAdaptive) {
    // [35]'s rule: GRR's variance n(m-2+e^eps)/(e^eps-1)^2 beats OLH's
    // 4n e^eps/(e^eps-1)^2 iff m < 3 e^eps + 2.
    const double threshold = 3.0 * std::exp(epsilon) + 2.0;
    kind = static_cast<double>(domain_size) < threshold ? FoKind::kGrr
                                                        : FoKind::kOlh;
  }
  switch (kind) {
    case FoKind::kOlh:
      return {std::make_unique<OlhProtocol>(epsilon, domain_size,
                                            hash_pool_size)};
    case FoKind::kGrr:
      if (domain_size < 2) {
        // A 1-value domain carries no information; GRR needs >= 2 values.
        // Use a 2-value domain; value 1 never occurs, estimates stay unbiased.
        domain_size = 2;
      }
      if (domain_size > (1ull << 32)) {
        return Status::InvalidArgument("GRR domain too large (max 2^32)");
      }
      return {std::make_unique<GrrProtocol>(epsilon, domain_size)};
    case FoKind::kOue:
      if (domain_size > (1ull << 22)) {
        return Status::InvalidArgument(
            "OUE domain too large (reports are O(domain))");
      }
      return {std::make_unique<OueProtocol>(epsilon, domain_size)};
    case FoKind::kHr:
      if (domain_size > (1ull << 31)) {
        return Status::InvalidArgument(
            "Hadamard-response domain too large (index must fit 32 bits)");
      }
      return {std::make_unique<HadamardProtocol>(epsilon, domain_size)};
    case FoKind::kAdaptive:
      break;  // resolved to GRR or OLH above
  }
  return Status::InvalidArgument("unknown FoKind");
}

int ReportStore::AddGroup(std::unique_ptr<FrequencyOracle> oracle) {
  const int id = static_cast<int>(oracles_.size());
  accumulators_.push_back(oracle->MakeAccumulator());
  oracles_.push_back(std::move(oracle));
  return id;
}

Status ReportStore::MergeFrom(ReportStore&& other) {
  if (other.num_groups() != num_groups()) {
    return Status::InvalidArgument(
        "cannot merge report stores with different group counts (" +
        std::to_string(other.num_groups()) + " vs " +
        std::to_string(num_groups()) + ")");
  }
  for (int g = 0; g < num_groups(); ++g) {
    LDP_RETURN_NOT_OK(
        accumulators_[g]->Merge(std::move(*other.accumulators_[g])));
  }
  return Status::OK();
}

}  // namespace ldp
