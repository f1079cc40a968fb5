#ifndef LDPMDA_FO_GRR_H_
#define LDPMDA_FO_GRR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fo/frequency_oracle.h"

namespace ldp {

/// Generalized randomized response (a.k.a. direct encoding / k-RR).
///
/// Client: report the true value with probability p = e^eps/(e^eps + m - 1),
/// otherwise a uniformly random *other* value.
/// Server: f̄(v) = (theta_v - n q) / (p - q), q = 1/(e^eps + m - 1).
///
/// Error grows linearly with the domain size m, so GRR is preferable to OLH
/// only when m < 3 e^eps + 2; included for ablations and cross-validation.
class GrrProtocol : public FrequencyOracle {
 public:
  GrrProtocol(double epsilon, uint64_t domain_size);

  FoReport Encode(uint64_t value, Rng& rng) const override;
  std::unique_ptr<FoAccumulator> MakeAccumulator() const override;

  FoKind kind() const override { return FoKind::kGrr; }
  double epsilon() const override { return epsilon_; }
  uint64_t domain_size() const override { return domain_size_; }
  uint64_t ReportSizeWords() const override { return 1; }

  double p() const { return p_; }
  double q() const { return q_; }

 private:
  double epsilon_;
  uint64_t domain_size_;
  double p_;
  double q_;
};

/// Server state for GRR: a sparse histogram of reported values, plus raw
/// (value, user) pairs for weighted estimation against arbitrary weights.
class GrrAccumulator : public FoAccumulator {
 public:
  explicit GrrAccumulator(const GrrProtocol& protocol);

  void Add(const FoReport& report, uint64_t user) override;
  uint64_t num_reports() const override { return values_.size(); }
  std::unique_ptr<FoAccumulator> NewShard() const override;
  Status Merge(FoAccumulator&& other) override;
  double EstimateWeighted(uint64_t value, const WeightVector& w) const override;
  void EstimateManyWeighted(std::span<const uint64_t> values,
                            const WeightVector& w,
                            std::span<double> out) const override;
  double GroupWeight(const WeightVector& w) const override;

  /// Exposed for white-box tests: whether a histogram for this weight set is
  /// currently cached (stale or not).
  bool HasCachedWeightSet(uint64_t weight_id) const;

 private:
  struct WeightedHistogram {
    std::unordered_map<uint32_t, double> by_value;
    double group_weight = 0.0;
  };
  std::shared_ptr<const WeightedHistogram> GetOrBuildHistogram(
      const WeightVector& w) const;

  /// Whether a batched estimate should scan the raw reports with the SIMD
  /// equality kernel instead of probing a histogram. True only for small
  /// value batches on the FIRST visit from a weight set (recorded in
  /// raw_probed_): a one-shot weight set never pays the O(n) map build,
  /// while a repeat visitor is promoted to the histogram so steady-state
  /// repeated queries amortize. Both paths produce bit-identical estimates
  /// (the raw scan's +0.0 non-match adds never change theta), so the choice
  /// is purely a cost decision.
  bool ShouldUseRawScan(const WeightVector& w, size_t num_values) const;

  const GrrProtocol& protocol_;
  std::vector<uint32_t> values_;
  std::vector<uint64_t> users_;
  WeightSetCache<WeightedHistogram> hist_cache_;
  /// Weight-set ids whose first batched estimate went through the raw scan;
  /// bounded FIFO, guarded by raw_probed_mu_.
  mutable std::mutex raw_probed_mu_;
  mutable std::deque<uint64_t> raw_probed_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_GRR_H_
