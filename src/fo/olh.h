#ifndef LDPMDA_FO_OLH_H_
#define LDPMDA_FO_OLH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "fo/frequency_oracle.h"

namespace ldp {

/// Optimal Local Hashing (OLH) [Wang et al., USENIX Security'17], the
/// frequency oracle used throughout the paper (Algorithm 3, Appendix A).
///
/// Client: draw a hash H from a universal family, compute x = H(t[D]) in
/// [0, g) with g = e^eps + 1, report <H, y> where y = x with probability
/// e^eps / (e^eps + g - 1) and any other bucket otherwise.
///
/// Server: f̄_S(v) = (theta - |S|/g) * (e^eps + g - 1) g /
/// (e^eps g - e^eps - g + 1), where theta counts reports with H(v) = y.
/// The weighted estimator (Prop. 4) follows by linearity:
///   f̄^M_S(v) = scale * (sum_t w_t * 1{H_t(v)=y_t}  -  (sum_t w_t) / g),
/// which equals the paper's group-by-measure definition (eq. 8) exactly.
class OlhProtocol : public FrequencyOracle {
 public:
  /// `hash_pool_size` restricts seeds to [0, pool) so the server can fold
  /// reports into per-seed histograms (see SeededHashFamily); 0 = unbounded.
  OlhProtocol(double epsilon, uint64_t domain_size, uint32_t hash_pool_size);

  FoReport Encode(uint64_t value, Rng& rng) const override;
  std::unique_ptr<FoAccumulator> MakeAccumulator() const override;

  FoKind kind() const override { return FoKind::kOlh; }
  double epsilon() const override { return epsilon_; }
  uint64_t domain_size() const override { return domain_size_; }
  uint64_t ReportSizeWords() const override { return 1; }

  uint32_t g() const { return g_; }
  /// P_{1->1}: probability the report supports the user's true value.
  double p() const { return p_; }
  /// P_{0->1} = 1/g: probability the report supports any other value.
  double q() const { return q_; }
  /// Unbiasing factor 1 / (p - q).
  double scale() const { return scale_; }
  uint32_t hash_pool_size() const { return family_.pool_size(); }

  /// True iff report (seed, y) supports `value`: H_seed(value) == y.
  bool Supports(uint32_t seed, uint32_t y, uint64_t value) const {
    return SeededHashFamily::Eval(seed, value, g_) == y;
  }

 private:
  double epsilon_;
  uint64_t domain_size_;
  uint32_t g_;
  double p_;
  double q_;
  double scale_;
  SeededHashFamily family_;
};

/// Server-side OLH state: a structure-of-arrays of (seed, y, user) triples
/// plus, per weight set, a cached group weight and, when seeds are pooled and
/// the group is large, per-seed histograms of weight sums so one cell
/// estimate costs O(pool) rather than O(#reports). Both live in a
/// WeightSetCache, so concurrent estimation fan-out (parallel box
/// decomposition) is safe and Add/Merge stay lock-free.
///
/// Without histograms the estimate is a raw scan split into fixed
/// kEstimateReportBlock-report blocks (EstimateBlocks), whose per-value
/// partials are summed in block order.
class OlhAccumulator : public FoAccumulator {
 public:
  explicit OlhAccumulator(const OlhProtocol& protocol);

  void Add(const FoReport& report, uint64_t user) override;
  uint64_t num_reports() const override { return seeds_.size(); }
  std::unique_ptr<FoAccumulator> NewShard() const override;
  Status Merge(FoAccumulator&& other) override;
  double EstimateWeighted(uint64_t value, const WeightVector& w) const override;
  void EstimateManyWeighted(std::span<const uint64_t> values,
                            const WeightVector& w,
                            std::span<double> out) const override;
  double GroupWeight(const WeightVector& w) const override;
  uint64_t EstimateBlocks() const override;
  void EstimateBlock(std::span<const uint64_t> values, const WeightVector& w,
                     uint64_t block, std::span<double> partial) const override;
  void FinishBlocks(std::span<const uint64_t> values, const WeightVector& w,
                    std::span<double> theta) const override;

  /// Exposed for white-box tests: whether the last estimate used histograms.
  bool UsesHistograms() const;
  /// Exposed for white-box tests: whether a histogram for this weight set is
  /// currently cached (stale or not).
  bool HasCachedWeightSet(uint64_t weight_id) const;

 private:
  struct WeightSetState {
    /// hist[seed * g + y] = sum of weights of reports with (seed, y); empty
    /// when the group is estimated by raw scan.
    std::vector<double> hist;
    /// Sum of the weights of this group's reports, in report order.
    double group_weight = 0.0;
  };

  std::shared_ptr<const WeightSetState> GetOrBuildWeightSet(
      const WeightVector& w) const;

  const OlhProtocol& protocol_;
  std::vector<uint32_t> seeds_;
  std::vector<uint32_t> ys_;
  std::vector<uint64_t> users_;
  WeightSetCache<WeightSetState> weight_sets_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_OLH_H_
