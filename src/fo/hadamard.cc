#include "fo/hadamard.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "fo/simd/simd.h"

namespace ldp {

HadamardProtocol::HadamardProtocol(double epsilon, uint64_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  LDP_CHECK_GT(epsilon, 0.0);
  LDP_CHECK_GE(domain_size, 1u);
  transform_size_ = 1;
  while (transform_size_ < domain_size) transform_size_ <<= 1;
  // A 1-value domain still needs a 2-row transform for the math to hold.
  if (transform_size_ < 2) transform_size_ = 2;
  const double e = std::exp(epsilon);
  p_ = e / (e + 1.0);
  scale_ = (e + 1.0) / (e - 1.0);
}

FoReport HadamardProtocol::Encode(uint64_t value, Rng& rng) const {
  LDP_DCHECK(value < transform_size_);
  FoReport report;
  const uint64_t j = rng.UniformInt(transform_size_);
  int x = Entry(j, value);
  if (!rng.Bernoulli(p_)) x = -x;
  report.seed = static_cast<uint32_t>(j);
  report.value = x > 0 ? 1 : 0;
  return report;
}

std::unique_ptr<FoAccumulator> HadamardProtocol::MakeAccumulator() const {
  return std::make_unique<HadamardAccumulator>(*this);
}

HadamardAccumulator::HadamardAccumulator(const HadamardProtocol& protocol)
    : protocol_(protocol) {}

void HadamardAccumulator::Add(const FoReport& report, uint64_t user) {
  // Cached spectra go stale implicitly: the cache records the report count
  // each was built at and rebuilds it at the next lookup.
  indices_.push_back(report.seed);
  signs_.push_back(report.value != 0 ? 1 : -1);
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> HadamardAccumulator::NewShard() const {
  return std::make_unique<HadamardAccumulator>(protocol_);
}

Status HadamardAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<HadamardAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-HR shard");
  }
  indices_.insert(indices_.end(), shard->indices_.begin(),
                  shard->indices_.end());
  signs_.insert(signs_.end(), shard->signs_.begin(), shard->signs_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->indices_.clear();
  shard->signs_.clear();
  shard->users_.clear();
  // Stale spectra are detected lazily by the cache; nothing to do.
  return Status::OK();
}

bool HadamardAccumulator::HasCachedWeightSet(uint64_t weight_id) const {
  return cache_.Contains(weight_id);
}

std::shared_ptr<const HadamardAccumulator::Spectrum>
HadamardAccumulator::GetOrBuildSpectrum(const WeightVector& w) const {
  return cache_.GetOrBuild(w, num_reports(), [&] {
    Spectrum s;
    std::unordered_map<uint64_t, double> signed_sum;
    for (size_t i = 0; i < indices_.size(); ++i) {
      const double weight = w[users_[i]];
      signed_sum[indices_[i]] += weight * signs_[i];
      s.group_weight += weight;
    }
    s.indices.reserve(signed_sum.size());
    s.sums.reserve(signed_sum.size());
    for (const auto& [j, sum] : signed_sum) {
      s.indices.push_back(j);
      s.sums.push_back(sum);
    }
    return s;
  });
}

double HadamardAccumulator::EstimateWeighted(uint64_t value,
                                             const WeightVector& w) const {
  const auto s = GetOrBuildSpectrum(w);
  double total = 0.0;
  for (size_t e = 0; e < s->indices.size(); ++e) {
    total += s->sums[e] * HadamardProtocol::Entry(s->indices[e], value);
  }
  return protocol_.scale() * total;
}

void HadamardAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                               const WeightVector& w,
                                               std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  if (values.empty()) return;
  // One spectrum fetch for the whole batch; spectrum entries run in the
  // outer loop so every value accumulates over them in the flattened entry
  // order the scalar path uses — bit-identical results.
  const auto s = GetOrBuildSpectrum(w);
  const FoKernels& kernels = ActiveKernels();
  FoEstimateMetrics().report_values->Add(s->indices.size() * values.size());
  constexpr size_t kTile = 512;
  double total[kTile];
  for (size_t v0 = 0; v0 < values.size(); v0 += kTile) {
    const size_t tile = std::min(kTile, values.size() - v0);
    std::fill(total, total + tile, 0.0);
    kernels.hr_spectrum(s->indices.data(), s->sums.data(), s->indices.size(),
                        values.data() + v0, tile, total);
    for (size_t vi = 0; vi < tile; ++vi) {
      out[v0 + vi] = protocol_.scale() * total[vi];
    }
  }
}

double HadamardAccumulator::GroupWeight(const WeightVector& w) const {
  return GetOrBuildSpectrum(w)->group_weight;
}

}  // namespace ldp
