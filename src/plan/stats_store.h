#ifndef LDPMDA_PLAN_STATS_STORE_H_
#define LDPMDA_PLAN_STATS_STORE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "plan/physical.h"

namespace ldp {

/// Identity of one executed plan as the stats store keys it. The fingerprint
/// is the key (a plan's canonical text checksum — stable across runs and
/// processes); mechanism and strategy ride along for replay reports.
struct PlanIdentity {
  uint64_t fingerprint = 0;
  MechanismKind mechanism = MechanismKind::kHio;
  PlanStrategy strategy = PlanStrategy::kDirectLevelGrid;
};

/// The identity of a plan as executed — what Record() keys on.
PlanIdentity PlanIdentityOf(const PhysicalPlan& plan);

/// One measured execution of a plan, as observed by the engine. Wall times
/// are display/replay data only; nodes_touched and estimate_calls are the
/// deterministic work measures (identical across thread counts, estimate
/// cache on/off, and SIMD levels), so EXPLAIN's actuals for them are too.
struct PlanObservation {
  uint64_t wall_nanos = 0;
  uint64_t estimate_calls = 0;
  /// Hierarchy/grid nodes the execution touched: kernel-estimated nodes plus
  /// nodes served from the estimate cache (hits + misses when the cache is
  /// on), so the measure is invariant to the cache being enabled.
  uint64_t nodes_touched = 0;
};

/// EWMA-smoothed per-fingerprint actuals.
struct PlanStats {
  PlanIdentity id;
  uint64_t observations = 0;
  double ewma_wall_nanos = 0.0;
  double ewma_estimate_calls = 0.0;
  double ewma_nodes = 0.0;
};

/// Bounded, thread-safe, record-only log of measured plan actuals.
/// AnalyticsEngine records one PlanObservation per Execute (each ExecuteBatch
/// query included) when EngineOptions::enable_feedback is on; EXPLAIN renders
/// predicted-vs-actual from the entries and ComparePlanStats diffs two
/// stores for plan-regression replay. Nothing reads the store back into
/// planning: the mechanism choice stays with the analytic cost model.
///
/// Smoothing is a classic EWMA: the first observation seeds the value,
/// subsequent ones fold in as ewma += 0.25 * (v - ewma). Entries are
/// evicted least-recently-recorded first when the store exceeds
/// max_entries().
///
/// GlobalMetrics mirrors activity under `plan.feedback_records` and
/// `plan.feedback_evictions`.
class PlanStatsStore {
 public:
  explicit PlanStatsStore(size_t max_entries = 1024);

  /// Folds one measured execution into the fingerprint's EWMA entry,
  /// creating (and possibly evicting) as needed.
  void Record(const PlanIdentity& id, const PlanObservation& obs);

  /// The smoothed stats for a plan fingerprint, if recorded.
  std::optional<PlanStats> Lookup(uint64_t fingerprint) const;

  /// All entries, fingerprint-sorted — deterministic, for replay/reporting.
  std::vector<PlanStats> Snapshot() const;

  void Clear();

  size_t max_entries() const { return max_entries_; }
  size_t size() const;

 private:
  struct Entry {
    PlanStats stats;
    std::list<uint64_t>::iterator lru_it;
  };

  size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  /// Least-recently-recorded order, front = evict first.
  std::list<uint64_t> lru_;
  Counter* m_records_;
  Counter* m_evictions_;
};

/// One fingerprint's baseline-vs-current comparison in a replay report.
struct ReplayFinding {
  PlanIdentity id;
  uint64_t baseline_observations = 0;
  uint64_t current_observations = 0;
  double baseline_wall_nanos = 0.0;
  double current_wall_nanos = 0.0;
  double baseline_nodes = 0.0;
  double current_nodes = 0.0;
  /// current_wall / baseline_wall (0 when the baseline wall is 0).
  double ratio = 0.0;
  /// True when current wall exceeds threshold x baseline wall.
  bool regressed = false;
};

/// Plan-regression report over two recorded runs of a workload: one finding
/// per fingerprint present in both stores, ordered by descending wall ratio
/// (fingerprint ascending on ties), plus the fingerprints only one side saw.
struct ReplayReport {
  double threshold = 1.5;
  std::vector<ReplayFinding> findings;
  size_t num_regressions = 0;
  std::vector<uint64_t> only_in_baseline;
  std::vector<uint64_t> only_in_current;

  /// Human-readable table, worst ratio first.
  std::string ToText() const;
  /// The same content as a single JSON object.
  std::string ToJson() const;
};

/// Compares per-fingerprint actuals across two runs (same workload, two
/// builds/configs) and flags strategies whose measured wall time got slower
/// by more than `threshold` x — the plan-regression detection entry point
/// behind bench/micro_plan_replay.
ReplayReport ComparePlanStats(const PlanStatsStore& baseline,
                              const PlanStatsStore& current,
                              double threshold = 1.5);

}  // namespace ldp

#endif  // LDPMDA_PLAN_STATS_STORE_H_
