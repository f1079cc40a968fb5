#include "fo/grr.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "fo/simd/simd.h"

namespace ldp {

namespace {
/// Raw equality scans beat a histogram build only for small value batches
/// (the scan costs O(n * V / lanes) vs the build's O(n) map inserts), so cap
/// the batch size the raw path accepts. Also the raw theta stack buffer.
constexpr size_t kGrrRawMaxValues = 64;
constexpr size_t kMaxRawProbedWeightSets = 16;
}  // namespace

GrrProtocol::GrrProtocol(double epsilon, uint64_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  LDP_CHECK_GT(epsilon, 0.0);
  LDP_CHECK_GE(domain_size, 2u);
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(domain_size) - 1.0);
  q_ = 1.0 / (e + static_cast<double>(domain_size) - 1.0);
}

FoReport GrrProtocol::Encode(uint64_t value, Rng& rng) const {
  LDP_DCHECK(value < domain_size_);
  FoReport report;
  if (rng.Bernoulli(p_)) {
    report.value = static_cast<uint32_t>(value);
  } else {
    const uint64_t r = rng.UniformInt(domain_size_ - 1);
    report.value = static_cast<uint32_t>(r >= value ? r + 1 : r);
  }
  return report;
}

std::unique_ptr<FoAccumulator> GrrProtocol::MakeAccumulator() const {
  return std::make_unique<GrrAccumulator>(*this);
}

GrrAccumulator::GrrAccumulator(const GrrProtocol& protocol)
    : protocol_(protocol) {}

void GrrAccumulator::Add(const FoReport& report, uint64_t user) {
  // Cached histograms go stale implicitly: the cache records the report
  // count each was built at and rebuilds it at the next lookup.
  values_.push_back(report.value);
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> GrrAccumulator::NewShard() const {
  return std::make_unique<GrrAccumulator>(protocol_);
}

Status GrrAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<GrrAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-GRR shard");
  }
  values_.insert(values_.end(), shard->values_.begin(), shard->values_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->values_.clear();
  shard->users_.clear();
  // Stale histograms are detected lazily by the cache; nothing to do.
  return Status::OK();
}

bool GrrAccumulator::HasCachedWeightSet(uint64_t weight_id) const {
  return hist_cache_.Contains(weight_id);
}

std::shared_ptr<const GrrAccumulator::WeightedHistogram>
GrrAccumulator::GetOrBuildHistogram(const WeightVector& w) const {
  return hist_cache_.GetOrBuild(w, num_reports(), [&] {
    WeightedHistogram h;
    for (size_t i = 0; i < values_.size(); ++i) {
      const double weight = w[users_[i]];
      h.by_value[values_[i]] += weight;
      h.group_weight += weight;
    }
    return h;
  });
}

double GrrAccumulator::EstimateWeighted(uint64_t value,
                                        const WeightVector& w) const {
  const auto h = GetOrBuildHistogram(w);
  const auto it = h->by_value.find(static_cast<uint32_t>(value));
  const double theta_w = it == h->by_value.end() ? 0.0 : it->second;
  return (theta_w - h->group_weight * protocol_.q()) /
         (protocol_.p() - protocol_.q());
}

bool GrrAccumulator::ShouldUseRawScan(const WeightVector& w,
                                      size_t num_values) const {
  if (num_values > kGrrRawMaxValues) return false;
  if (hist_cache_.Contains(w.id(), num_reports())) {
    return false;  // a fresh histogram is already paid for: probe it in O(V)
  }
  std::lock_guard<std::mutex> lock(raw_probed_mu_);
  if (std::find(raw_probed_.begin(), raw_probed_.end(), w.id()) !=
      raw_probed_.end()) {
    return false;  // second visit: promote to a histogram build
  }
  if (raw_probed_.size() >= kMaxRawProbedWeightSets) raw_probed_.pop_front();
  raw_probed_.push_back(w.id());
  return true;
}

void GrrAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                          const WeightVector& w,
                                          std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  if (values.empty()) return;
  const double q = protocol_.q();
  const double pq_diff = protocol_.p() - q;
  if (ShouldUseRawScan(w, values.size())) {
    // Single vectorized pass over the raw reports; theta and group_weight
    // both accumulate in report order, and non-matching reports add +0.0,
    // so the result is bit-identical to the histogram path below.
    const size_t n = values_.size();
    double theta[kGrrRawMaxValues];
    std::fill(theta, theta + values.size(), 0.0);
    double group_weight = 0.0;
    ActiveKernels().grr_raw(values_.data(), users_.data(), n,
                            w.values().data(), values.data(), values.size(),
                            theta, &group_weight);
    FoEstimateMetrics().report_values->Add(n * values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = (theta[i] - group_weight * q) / pq_diff;
    }
    return;
  }
  // One histogram fetch amortized across the batch; per-value math is
  // exactly the scalar estimator's.
  const auto h = GetOrBuildHistogram(w);
  FoEstimateMetrics().report_values->Add(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto it = h->by_value.find(static_cast<uint32_t>(values[i]));
    const double theta_w = it == h->by_value.end() ? 0.0 : it->second;
    out[i] = (theta_w - h->group_weight * q) / pq_diff;
  }
}

double GrrAccumulator::GroupWeight(const WeightVector& w) const {
  return GetOrBuildHistogram(w)->group_weight;
}

}  // namespace ldp
