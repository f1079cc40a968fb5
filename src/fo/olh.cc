#include "fo/olh.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/privacy_math.h"
#include "fo/simd/simd.h"

namespace ldp {

namespace {
/// Use histograms only when the group is big enough that the O(pool) scan
/// beats the O(#reports) scan, and the histogram itself is not outlandish.
constexpr uint64_t kMaxHistogramCells = 1ull << 24;
/// Value-tile width for the batched kernels: small enough that the per-tile
/// theta accumulators stay in L1, large enough to amortize one report load
/// over many hash evaluations.
constexpr size_t kOlhValueTile = 512;
}  // namespace

OlhProtocol::OlhProtocol(double epsilon, uint64_t domain_size,
                         uint32_t hash_pool_size)
    : epsilon_(epsilon),
      domain_size_(domain_size),
      g_(OptimalOlhG(epsilon)),
      p_(OlhP(epsilon, g_)),
      q_(OlhQ(g_)),
      scale_(OlhScale(epsilon, g_)),
      family_(hash_pool_size) {
  LDP_CHECK_GT(epsilon, 0.0);
}

FoReport OlhProtocol::Encode(uint64_t value, Rng& rng) const {
  FoReport report;
  report.seed = family_.SampleSeed(rng);
  const uint32_t x = SeededHashFamily::Eval(report.seed, value, g_);
  if (rng.Bernoulli(p_)) {
    report.value = x;  // stay
  } else {
    // flip: uniform over the g - 1 buckets other than x.
    const uint32_t r = static_cast<uint32_t>(rng.UniformInt(g_ - 1));
    report.value = r >= x ? r + 1 : r;
  }
  return report;
}

std::unique_ptr<FoAccumulator> OlhProtocol::MakeAccumulator() const {
  return std::make_unique<OlhAccumulator>(*this);
}

OlhAccumulator::OlhAccumulator(const OlhProtocol& protocol)
    : protocol_(protocol) {}

void OlhAccumulator::Add(const FoReport& report, uint64_t user) {
  LDP_DCHECK(report.value < protocol_.g());
  // No cache maintenance here: the histogram cache records the report count
  // each entry was built at, so growing the report vectors marks them stale.
  seeds_.push_back(report.seed);
  ys_.push_back(report.value);
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> OlhAccumulator::NewShard() const {
  return std::make_unique<OlhAccumulator>(protocol_);
}

Status OlhAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<OlhAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-OLH shard");
  }
  seeds_.insert(seeds_.end(), shard->seeds_.begin(), shard->seeds_.end());
  ys_.insert(ys_.end(), shard->ys_.begin(), shard->ys_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->seeds_.clear();
  shard->ys_.clear();
  shard->users_.clear();
  // Stale histograms are detected lazily by the cache; nothing to do.
  return Status::OK();
}

bool OlhAccumulator::UsesHistograms() const {
  const uint32_t pool = protocol_.hash_pool_size();
  if (pool == 0) return false;
  const uint64_t cells = static_cast<uint64_t>(pool) * protocol_.g();
  if (cells > kMaxHistogramCells) return false;
  // Building costs O(n); it pays off once cell estimates are repeated, which
  // every box query does. Require the group to be clearly larger than the
  // pool so the O(pool) estimate is an actual win.
  return num_reports() >= 2ull * pool;
}

bool OlhAccumulator::HasCachedWeightSet(uint64_t weight_id) const {
  return weight_sets_.Contains(weight_id);
}

std::shared_ptr<const OlhAccumulator::WeightSetState>
OlhAccumulator::GetOrBuildWeightSet(const WeightVector& w) const {
  const bool histogram = UsesHistograms();
  return weight_sets_.GetOrBuild(w, num_reports(), [&] {
    WeightSetState state;
    const uint32_t g = protocol_.g();
    if (histogram) {
      state.hist.assign(static_cast<size_t>(protocol_.hash_pool_size()) * g,
                        0.0);
    }
    for (size_t i = 0; i < seeds_.size(); ++i) {
      const double weight = w[users_[i]];
      if (histogram) {
        state.hist[static_cast<size_t>(seeds_[i]) * g + ys_[i]] += weight;
      }
      state.group_weight += weight;
    }
    return state;
  });
}

double OlhAccumulator::EstimateWeighted(uint64_t value,
                                        const WeightVector& w) const {
  double out = 0.0;
  EstimateManyWeighted(std::span<const uint64_t>(&value, 1), w,
                       std::span<double>(&out, 1));
  return out;
}

void OlhAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                          const WeightVector& w,
                                          std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  const uint64_t blocks = EstimateBlocks();
  double partial[kOlhValueTile];
  for (size_t v0 = 0; v0 < values.size(); v0 += kOlhValueTile) {
    const size_t tile = std::min(kOlhValueTile, values.size() - v0);
    const auto tile_values = values.subspan(v0, tile);
    const auto theta = out.subspan(v0, tile);
    for (uint64_t b = 0; b < blocks; ++b) {
      EstimateBlock(tile_values, w, b, std::span<double>(partial, tile));
      FoldBlockPartial(b, std::span<const double>(partial, tile), theta);
    }
    FinishBlocks(tile_values, w, theta);
  }
}

uint64_t OlhAccumulator::EstimateBlocks() const {
  if (UsesHistograms()) return 1;
  return std::max<uint64_t>(
      1, (num_reports() + kEstimateReportBlock - 1) / kEstimateReportBlock);
}

void OlhAccumulator::EstimateBlock(std::span<const uint64_t> values,
                                   const WeightVector& w, uint64_t block,
                                   std::span<double> partial) const {
  LDP_CHECK_EQ(values.size(), partial.size());
  LDP_DCHECK(block < EstimateBlocks());
  const uint32_t g = protocol_.g();
  const FoKernels& kernels = ActiveKernels();
  // Pooled: one histogram fetch for the whole batch, and per value the sum
  // runs over seeds in pool order. Raw: the block's reports in order; block
  // 0 also builds the group weight FinishBlocks needs, so a fanned-out
  // estimate pays for it in a task rather than on the caller.
  const auto state = UsesHistograms() ? GetOrBuildWeightSet(w) : nullptr;
  if (state == nullptr && block == 0) (void)GroupWeight(w);
  const size_t begin = block * kEstimateReportBlock;
  const size_t end =
      std::min<size_t>(seeds_.size(), begin + kEstimateReportBlock);
  const uint32_t pool = protocol_.hash_pool_size();
  FoEstimateMetrics().report_values->Add(
      (state != nullptr ? pool : end - begin) * values.size());
  // The kernels accumulate into a stack tile, not into `partial`: concurrent
  // block tasks write neighbouring slices of one buffer, and a cache line
  // they share would bounce between cores once per report.
  double theta[kOlhValueTile];
  for (size_t v0 = 0; v0 < values.size(); v0 += kOlhValueTile) {
    const size_t tile = std::min(kOlhValueTile, values.size() - v0);
    std::fill(theta, theta + tile, 0.0);
    if (state != nullptr) {
      kernels.olh_hist(state->hist.data(), pool, g, values.data() + v0, tile,
                       theta);
    } else {
      kernels.olh_raw(seeds_.data() + begin, ys_.data() + begin,
                      users_.data() + begin, end - begin,
                      w.all_ones() ? nullptr : w.values().data(), g,
                      values.data() + v0, tile, theta);
    }
    std::copy(theta, theta + tile, partial.begin() + v0);
  }
}

void OlhAccumulator::FinishBlocks(std::span<const uint64_t>,
                                  const WeightVector& w,
                                  std::span<double> theta) const {
  const double offset = GroupWeight(w) / protocol_.g();
  const double scale = protocol_.scale();
  for (double& t : theta) t = scale * (t - offset);
}

double OlhAccumulator::GroupWeight(const WeightVector& w) const {
  // n ones summed in report order are exactly n: no gather, no cache entry.
  if (w.all_ones()) return static_cast<double>(num_reports());
  return GetOrBuildWeightSet(w)->group_weight;
}

}  // namespace ldp
