#ifndef LDPMDA_FO_FREQUENCY_ORACLE_H_
#define LDPMDA_FO_FREQUENCY_ORACLE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ldp {

/// Shared GlobalMetrics handles for the oracles' lazy weighted-histogram /
/// spectrum caches (`fo_cache.*`): hits (generation-valid cached entry
/// served), builds (full O(n) rebuilds, first-time or after staleness),
/// stale_rebuilds (subset of builds caused by the built_reports generation
/// check), evictions (FIFO capacity drops), build_ns (wall time of each
/// build — `fo_cache.histogram_build_ns`). Resolved once per process.
struct FoCacheCounters {
  Counter* hits;
  Counter* builds;
  Counter* stale_rebuilds;
  Counter* evictions;
  LatencyHistogram* build_ns;
};
const FoCacheCounters& FoCacheMetrics();

/// Shared GlobalMetrics handles for the estimate kernels. `report_values`
/// (`estimate.report_values`) counts kernel inner-loop evaluations — one per
/// (report, value) pair for raw scans, (pool seed, value) for pooled OLH
/// histograms, (spectrum entry, value) for HR — so production per-report
/// kernel throughput is report_values over wall time, the same
/// reports-per-second figure the benches record.
struct FoEstimateCounters {
  Counter* report_values;
};
const FoEstimateCounters& FoEstimateMetrics();

/// Which LDP frequency-oracle protocol to use as the building block.
/// The paper uses OLH (optimal local hashing, [35]); GRR, OUE and Hadamard
/// response are included as drop-in alternates for ablation studies.
/// kAdaptive applies [35]'s selection rule per domain: GRR when the domain
/// is smaller than 3 e^eps + 2 (where direct encoding has lower variance),
/// OLH otherwise — useful inside HI/HIO where shallow levels have tiny
/// domains and deep levels large ones.
enum class FoKind { kOlh, kGrr, kOue, kHr, kAdaptive };

std::string FoKindName(FoKind kind);
Result<FoKind> FoKindFromString(std::string_view name);

/// One LDP report produced by a frequency-oracle encoder.
/// OLH uses (seed, value); GRR uses value only; OUE uses the bit vector.
struct FoReport {
  uint32_t seed = 0;
  uint32_t value = 0;
  std::vector<uint64_t> bits;  // OUE only
};

/// A reusable per-user weight assignment (the public measure M, an all-ones
/// vector for COUNT, or measure x public-predicate indicator; Sections 3.1
/// and 7). Each instance carries a unique id so accumulators can cache
/// derived per-seed histograms keyed by weight set.
class WeightVector {
 public:
  explicit WeightVector(std::vector<double> weights);

  /// All-ones weights of length n (COUNT aggregation).
  static WeightVector Ones(uint64_t n);

  uint64_t id() const { return id_; }
  uint64_t size() const { return weights_.size(); }
  double operator[](uint64_t i) const { return weights_[i]; }
  const std::vector<double>& values() const { return weights_; }

  /// Sum of all weights.
  double total() const { return total_; }
  /// Sum of squared weights (M2_S in the paper's bounds).
  double sum_squares() const { return sum_squares_; }
  /// Whether every weight is exactly 1.0 (COUNT). Scans may then skip the
  /// per-report weight gather: 1.0 is what the gather would load.
  bool all_ones() const { return all_ones_; }

 private:
  uint64_t id_;
  std::vector<double> weights_;
  double total_ = 0.0;
  double sum_squares_ = 0.0;
  bool all_ones_ = true;
};

/// Reports per block of a block-split raw scan (see
/// FoAccumulator::EstimateBlocks). Fixed — never derived from a thread
/// count — so a group's block boundaries, and with them the floating-point
/// summation order of its estimates, depend only on its report count.
inline constexpr uint64_t kEstimateReportBlock = 4096;

/// The block-order rule of a block-split estimate, applied one block at a
/// time and in block order by every caller: block 0's partials become the
/// running sums, each later block's are added to them.
inline void FoldBlockPartial(uint64_t block, std::span<const double> partial,
                             std::span<double> theta) {
  for (size_t v = 0; v < theta.size(); ++v) {
    theta[v] = block == 0 ? partial[v] : theta[v] + partial[v];
  }
}

/// Server-side state for one group of reports encoded with the same
/// protocol instance. Supports unbiased weighted-frequency estimation
/// (Prop. 4): an estimate of  f^M_S(v) = sum of w_t over users t in this
/// group with t[D] = v.
class FoAccumulator {
 public:
  virtual ~FoAccumulator() = default;

  /// Adds one report. `user` is the global row id of the reporting user and
  /// indexes into WeightVector at estimation time.
  virtual void Add(const FoReport& report, uint64_t user) = 0;

  virtual uint64_t num_reports() const = 0;

  /// --- Combiner interface (shard-parallel ingestion) ---
  /// Creates an empty accumulator of the same concrete type bound to the
  /// same protocol — a thread-private ingest shard. N workers Add() into
  /// private shards over contiguous report chunks, then the owner folds them
  /// back with Merge() in chunk order, which reproduces exactly the report
  /// order (and therefore the bit-exact estimates) of serial ingestion.
  virtual std::unique_ptr<FoAccumulator> NewShard() const = 0;

  /// Appends `other`'s reports after this accumulator's own, preserving
  /// their relative order. `other` must come from NewShard() of a compatible
  /// accumulator (same concrete type and protocol); it is consumed and left
  /// empty. Returns InvalidArgument on a type mismatch.
  virtual Status Merge(FoAccumulator&& other) = 0;

  /// Unbiased estimate of the total weight of users in this group holding
  /// `value`. The same reports may be estimated against any number of weight
  /// vectors (post-processing under LDP). Thread-safe against concurrent
  /// EstimateWeighted/GroupWeight calls (estimation fan-out); NOT against a
  /// concurrent Add or Merge — ingestion and estimation are distinct stages.
  virtual double EstimateWeighted(uint64_t value, const WeightVector& w) const = 0;

  /// Batched estimation: out[i] = EstimateWeighted(values[i], w) for every
  /// requested value, with one pass over the reports (or one cached
  /// histogram fetch) amortized across the whole batch instead of one pass
  /// per value. `out.size()` must equal `values.size()`.
  ///
  /// Bit-identical to the scalar path: each value's floating-point
  /// accumulation order depends only on the reports, never on how a value
  /// set is split into batches, so callers may tile `values` freely —
  /// including in parallel over disjoint tiles — and always reproduce the
  /// serial scalar loop exactly. The order is the report order, except that
  /// a block-split oracle (EstimateBlocks() > 1) sums per-block partials in
  /// block order (FoldBlockPartial). Same thread-safety contract as
  /// EstimateWeighted.
  ///
  /// The default implementation loops the scalar path, so every oracle is
  /// correct by construction; OLH/GRR/OUE/HR override it with single-pass
  /// multi-value kernels.
  virtual void EstimateManyWeighted(std::span<const uint64_t> values,
                                    const WeightVector& w,
                                    std::span<double> out) const;

  /// --- Block-split estimation ---
  /// Every batched estimate has the form
  ///   theta = FoldBlockPartial over b = 0 .. EstimateBlocks()-1 of P_b,
  ///   out   = FinishBlocks(theta),
  /// where P_b = EstimateBlock(b) covers reports
  /// [b * kEstimateReportBlock, (b + 1) * kEstimateReportBlock). The serial
  /// EstimateManyWeighted computes the blocks in a loop; EstimateNodesBatched
  /// computes them as parallel tasks and folds them on the caller, so both
  /// give the same bits. The defaults are one block whose partial is the
  /// finished EstimateManyWeighted result and a FinishBlocks that keeps it.
  virtual uint64_t EstimateBlocks() const { return 1; }
  /// Writes block `block`'s per-value partials to `partial` (overwriting
  /// it); `partial.size()` must equal `values.size()`. Same thread-safety
  /// contract as EstimateWeighted.
  virtual void EstimateBlock(std::span<const uint64_t> values,
                             const WeightVector& w, uint64_t block,
                             std::span<double> partial) const;
  /// Turns the folded per-value sums into estimates, in place.
  virtual void FinishBlocks(std::span<const uint64_t> values,
                            const WeightVector& w,
                            std::span<double> theta) const;

  /// Sum of w over users in this group (exact; weights are public).
  virtual double GroupWeight(const WeightVector& w) const = 0;
};

/// The lazy per-weight-set cache an accumulator keeps of structures derived
/// from its reports (OLH per-seed histograms, GRR value histograms, HR
/// spectra). Keyed by WeightVector id, bounded to kCapacity entries with
/// FIFO eviction (the deque keeps eviction O(1)). Each entry records the
/// report count it was built at; reports are append-only, so a mismatch with
/// the live count marks it stale and it is rebuilt at lookup time — Add and
/// Merge never touch the cache. Lookups and builds are mutex-guarded and
/// entries are handed out as shared_ptr, so concurrent estimation fan-out
/// shares one build. Counts into the `fo_cache.*` metrics.
template <typename Entry>
class WeightSetCache {
 public:
  static constexpr size_t kCapacity = 8;

  /// The entry for `w` built at `reports` reports; on a miss or a stale hit,
  /// `build()` (returning an Entry) computes it. The build runs under the
  /// lock so concurrent estimation tasks share one build, not one each.
  template <typename Build>
  std::shared_ptr<const Entry> GetOrBuild(const WeightVector& w,
                                          uint64_t reports,
                                          Build&& build) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(w.id());
    if (it != slots_.end()) {
      if (it->second.built_reports == reports) {
        FoCacheMetrics().hits->Add(1);
        return it->second.entry;
      }
      // Built before the latest Add/Merge: discard and rebuild below.
      slots_.erase(it);
      std::erase(order_, w.id());
      FoCacheMetrics().stale_rebuilds->Add(1);
    }
    if (slots_.size() >= kCapacity) {
      slots_.erase(order_.front());
      order_.pop_front();
      FoCacheMetrics().evictions->Add(1);
    }
    FoCacheMetrics().builds->Add(1);
    const auto build_start = std::chrono::steady_clock::now();
    auto entry = std::make_shared<const Entry>(build());
    FoCacheMetrics().build_ns->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - build_start)
            .count());
    slots_.emplace(w.id(), Slot{entry, reports});
    order_.push_back(w.id());
    return entry;
  }

  /// Whether an entry for `weight_id` is cached — stale or not, or, when
  /// `reports` is given, built at exactly that report count.
  bool Contains(uint64_t weight_id,
                std::optional<uint64_t> reports = std::nullopt) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(weight_id);
    return it != slots_.end() &&
           (!reports || it->second.built_reports == *reports);
  }

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    uint64_t built_reports = 0;
  };
  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, Slot> slots_;
  mutable std::deque<uint64_t> order_;
};

/// A configured LDP frequency-oracle protocol: client-side `Encode` plus a
/// factory for server-side accumulators.
class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  /// Creates a protocol with privacy budget `epsilon` (per report) over a
  /// domain of `domain_size` values. `hash_pool_size` restricts OLH seeds to
  /// a pool (0 = unbounded, exactly unbiased; finite pools trade a small
  /// conditional bias for O(pool) cell estimates); ignored by GRR/OUE.
  static Result<std::unique_ptr<FrequencyOracle>> Create(
      FoKind kind, double epsilon, uint64_t domain_size,
      uint32_t hash_pool_size = 0);

  /// Encodes a private value into an LDP report (runs on the client).
  virtual FoReport Encode(uint64_t value, Rng& rng) const = 0;

  virtual std::unique_ptr<FoAccumulator> MakeAccumulator() const = 0;

  virtual FoKind kind() const = 0;
  virtual double epsilon() const = 0;
  virtual uint64_t domain_size() const = 0;

  /// Size of one serialized report in 64-bit words (Table 3 accounting).
  virtual uint64_t ReportSizeWords() const = 0;
};

/// A dense collection of (protocol, accumulator) pairs indexed by group id.
/// HI/HIO group by (multi-dim) level, SC by (dimension, level), MG has a
/// single group. Shared server-side plumbing for all mechanisms.
class ReportStore {
 public:
  /// Appends a group; group ids are assigned densely in call order.
  int AddGroup(std::unique_ptr<FrequencyOracle> oracle);

  int num_groups() const { return static_cast<int>(oracles_.size()); }

  const FrequencyOracle& oracle(int group) const { return *oracles_[group]; }
  FoAccumulator& accumulator(int group) { return *accumulators_[group]; }
  const FoAccumulator& accumulator(int group) const {
    return *accumulators_[group];
  }

  /// Encodes `value` with group `group`'s protocol (client side).
  FoReport Encode(int group, uint64_t value, Rng& rng) const {
    return oracles_[group]->Encode(value, rng);
  }

  /// Adds a report to group `group` (server side).
  void Add(int group, const FoReport& report, uint64_t user) {
    accumulators_[group]->Add(report, user);
  }

  /// Folds `other`'s per-group shard accumulators into this store's (group
  /// by group, appending after the existing reports). `other` must have been
  /// built from the same oracle configuration; it is consumed.
  Status MergeFrom(ReportStore&& other);

 private:
  std::vector<std::unique_ptr<FrequencyOracle>> oracles_;
  std::vector<std::unique_ptr<FoAccumulator>> accumulators_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_FREQUENCY_ORACLE_H_
