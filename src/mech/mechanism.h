#ifndef LDPMDA_MECH_MECHANISM_H_
#define LDPMDA_MECH_MECHANISM_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/schema.h"
#include "fo/frequency_oracle.h"
#include "hierarchy/level_grid.h"
#include "mech/estimate_cache.h"

namespace ldp {

class ExecutionContext;

/// The four LDP mechanisms evaluated in the paper (Section 6), plus the
/// QuadTree and Haar-wavelet space-partitioning alternatives discussed in
/// Section 7, the hybrid-dimensional-grid mechanism of Yang et al. (HDG),
/// and the marginal-selection mechanism of Wang et al. (CALM).
enum class MechanismKind { kHi, kHio, kSc, kMg, kQuadTree, kHaar, kHdg, kCalm };

std::string MechanismKindName(MechanismKind kind);
Result<MechanismKind> MechanismKindFromString(std::string_view name);

/// Tuning knobs shared by all mechanisms.
struct MechanismParams {
  /// Total per-user privacy budget epsilon; every mechanism is eps-LDP.
  double epsilon = 1.0;
  /// Hierarchy fan-out b (the paper uses b = 5, chosen to minimize the RHS
  /// of Theorem 7's bound).
  uint32_t fanout = 5;
  /// Frequency oracle building block. SC requires OLH.
  FoKind fo_kind = FoKind::kOlh;
  /// OLH hash-seed pool size. 0 (default) draws seeds from the full 32-bit
  /// space — the faithful universal-hash setting with exactly unbiased
  /// estimates. A finite pool (e.g. 4096) lets the server fold reports into
  /// per-seed histograms, making cell estimates O(pool) instead of
  /// O(#reports) — essential for the MG baseline's O(m^d)-cell box sums —
  /// at the cost of a small conditional bias of relative order
  /// 1/sqrt(g * pool) per distinct value, which is negligible next to the
  /// LDP noise at benchmark scales (see DESIGN.md).
  uint32_t hash_pool_size = 0;
  /// Expected population size N, used by mechanisms whose layout depends on
  /// it (HDG's adaptive grid granularities, CALM's marginal-size budget).
  /// 0 (default) falls back to a fixed heuristic of 50000 so that layouts —
  /// and therefore report formats — never depend on the observed number of
  /// reports.
  uint64_t population_hint = 0;
};

/// The LDP report a single user sends: one frequency-oracle report per
/// "group". HI reports every d-dim level (group = flat level tuple), HIO
/// one random level, SC one report per (dimension, non-root level), MG a
/// single report on the full cross-product domain.
struct LdpReport {
  struct Entry {
    uint32_t group = 0;
    FoReport fo;
  };
  std::vector<Entry> entries;

  /// Serialized size in 64-bit words (group tag + payload per entry);
  /// the "Encoder space per user" column of Table 3.
  uint64_t SizeWords() const;

  /// Binary wire format (little-endian), for shipping reports from real
  /// clients to a real server:
  ///   u32 entry_count, then per entry: u32 group, u32 seed, u32 value,
  ///   u32 bit_word_count, u64 bit_words[].
  std::string Serialize() const;
  static Result<LdpReport> Deserialize(std::string_view bytes);

  friend bool operator==(const LdpReport& a, const LdpReport& b);
};

/// An LDP mechanism (A, P̄): a client-side encoder plus a server-side
/// estimation processor for MDA box aggregates.
///
/// The server never sees sensitive values; it receives LdpReports (paired
/// with public per-user weights at estimation time) and answers conjunctive
/// box queries with unbiased estimates. AND-OR predicates, AVG/STDEV and
/// public-dimension filtering are layered on top by the AnalyticsEngine.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  virtual MechanismKind kind() const = 0;
  const MechanismParams& params() const { return params_; }
  const Schema& schema() const { return schema_; }

  /// Number of distinct report-entry group ids this mechanism emits (dense,
  /// starting at 0). A composite mechanism offsets its sub-mechanisms'
  /// groups into one id space, so reports self-describe their owner.
  virtual uint64_t NumReportGroups() const = 0;

  /// Attaches a shard-parallel execution context. The mechanism does not own
  /// it; the caller must keep it alive for the mechanism's lifetime. When no
  /// context is attached, estimation runs on the serial context (which uses
  /// the same chunked reductions, so estimates are independent of the
  /// attached context's thread count, bit for bit). Composite mechanisms
  /// override this to forward the context to their sub-mechanisms.
  virtual void set_execution_context(const ExecutionContext* exec) {
    exec_ = exec;
  }
  const ExecutionContext* execution_context() const { return exec_; }

  /// --- Client side (algorithm A) ---
  /// Encodes one user's sensitive dimension values (one value per sensitive
  /// dimension, in Schema::sensitive_dims() order). eps-LDP overall.
  virtual LdpReport EncodeUser(std::span<const uint32_t> values,
                               Rng& rng) const = 0;

  /// --- Server side (estimation processor P̄) ---
  /// Ingests the report of user `user` (a dense row id; weights are indexed
  /// by it at estimation time).
  virtual Status AddReport(const LdpReport& report, uint64_t user) = 0;

  /// Structural check of a report against this mechanism's configuration —
  /// exactly the validation AddReport performs before mutating any state.
  /// Side-effect free and safe to call concurrently, so a staged ingestion
  /// pipeline can validate in parallel before committing serially.
  virtual Status ValidateReport(const LdpReport& report) const = 0;

  /// --- Combiner interface (shard-parallel ingestion) ---
  /// A fresh, empty mechanism with this mechanism's schema and params.
  /// Workers ingest disjoint report ranges into private shards, then the
  /// owner folds them in with Merge; the merged state is identical to having
  /// ingested every report sequentially in shard order. The default rebuilds
  /// a mechanism of the same kind from schema_/params_; composite mechanisms
  /// override it.
  virtual Result<std::unique_ptr<Mechanism>> NewShard() const;

  /// Folds a shard's accumulated reports into this mechanism, preserving
  /// report order (this mechanism's reports first, then the shard's). The
  /// shard must come from NewShard() of an identically-configured mechanism;
  /// it is drained and must not be used afterwards.
  virtual Status Merge(Mechanism&& shard) = 0;

  /// Unbiased estimate of  sum of w_t  over users whose sensitive values lie
  /// in the axis-aligned box (one closed interval per sensitive dimension,
  /// in Schema::sensitive_dims() order; pass the full domain for dimensions
  /// absent from the predicate).
  virtual Result<double> EstimateBox(std::span<const Interval> ranges,
                                     const WeightVector& weights) const = 0;

  /// Number of *accepted* reports. All renormalization downstream is by this
  /// count — never by an intended population size — so estimates stay
  /// unbiased w.r.t. the cohort that actually reported when clients drop out.
  uint64_t num_reports() const { return num_reports_; }

  /// Enables (or resizes) the cross-query node-estimate cache with a budget
  /// of `max_bytes` (0 disables it). Purely a performance knob: estimates
  /// are bit-identical with the cache on or off — it only skips recomputing
  /// nodes already estimated against the same weight vector and report set.
  /// Any existing cache contents are dropped. Composite mechanisms override
  /// this to give each sub-mechanism its own cache (cache keys are per-group
  /// and group ids collide across sub-mechanisms).
  virtual void EnableEstimateCache(size_t max_bytes);

  /// The node-estimate cache, or null when disabled.
  EstimateCache* estimate_cache() const { return estimate_cache_.get(); }

  /// An upper bound on the variance of EstimateBox(ranges, weights) — the
  /// paper's closed-form error analyses (Prop. 4/5, Theorems 6-11)
  /// instantiated for this mechanism's actual decomposition of the box.
  /// Useful for reporting estimate +- stddev to analysts. Conservative: the
  /// data-dependent M2_S(v) terms are bounded by the full sum of squares.
  virtual Result<double> VarianceBound(std::span<const Interval> ranges,
                                       const WeightVector& weights) const = 0;

 protected:
  Mechanism(Schema schema, MechanismParams params)
      : params_(params), schema_(std::move(schema)) {}

  /// Typed guard for estimation entry points: with zero accepted reports the
  /// estimators would return a meaningless 0 (or NaN after renormalization),
  /// so surface the condition instead. Call at the top of EstimateBox.
  Status EnsureReports() const;

  /// The context estimation should run on: the attached one, or the serial
  /// singleton when none is attached.
  const ExecutionContext& exec() const;

  MechanismParams params_;
  /// The schema this mechanism was configured for; NewShard() rebuilds an
  /// identical mechanism from it.
  Schema schema_;
  /// Not owned; null until set_execution_context.
  const ExecutionContext* exec_ = nullptr;
  /// Bumped by subclasses in AddReport after a report passes validation.
  /// Doubles as the estimate-cache epoch: it changes whenever the report set
  /// does, so stale cache entries are recognized without any explicit
  /// invalidation on the ingest path.
  uint64_t num_reports_ = 0;
  /// Null unless EnableEstimateCache was called with a non-zero budget.
  std::unique_ptr<EstimateCache> estimate_cache_;
};

/// The shared server side of HI, HIO, MG, QuadTree, Haar, HDG and CALM: each
/// report entry goes into one group of a ReportStore (one frequency oracle
/// per level, grid or marginal) and estimates are sums of per-group FO
/// estimates. Subclasses populate store_ in their Init and supply the
/// encoder and the estimators; ingest, validation and the shard combiner
/// live here once.
class StoreBackedMechanism : public Mechanism {
 public:
  /// How many entries a well-formed report carries — fixed per mechanism.
  enum class ReportShape {
    kOneEntry,    ///< one sampled group (HIO, MG, QuadTree, Haar, HDG, CALM)
    kEveryGroup,  ///< every group once, in group order (HI)
  };

  uint64_t NumReportGroups() const final {
    return static_cast<uint64_t>(store_.num_groups());
  }
  /// InvalidArgument on a wrong entry count (or, for kEveryGroup, entries
  /// out of group order), OutOfRange on a group id >= NumReportGroups().
  Status ValidateReport(const LdpReport& report) const final;
  Status AddReport(const LdpReport& report, uint64_t user) final;
  /// Appends the shard's per-group reports after this mechanism's own; the
  /// shard must be of the same kind.
  Status Merge(Mechanism&& shard) final;

 protected:
  StoreBackedMechanism(Schema schema, MechanismParams params,
                       ReportShape shape)
      : Mechanism(std::move(schema), params), shape_(shape) {}

  ReportStore store_;

 private:
  const ReportShape shape_;
};

/// Builds the per-dimension hierarchies for the schema's sensitive
/// dimensions: b-ary for ordinal, two-level for categorical (Section 5.2).
std::vector<std::unique_ptr<DimHierarchy>> BuildHierarchies(
    const Schema& schema, uint32_t fanout);

/// Validates an EncodeUser values span against the schema.
Status ValidateSensitiveValues(const Schema& schema,
                               std::span<const uint32_t> values);

}  // namespace ldp

#endif  // LDPMDA_MECH_MECHANISM_H_
