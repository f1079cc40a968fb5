#ifndef LDPMDA_OBS_TRACE_H_
#define LDPMDA_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ldp {

/// Per-query execution profile: wall time per pipeline stage plus the work
/// and cache traffic the query caused. Filled by AnalyticsEngine when the
/// caller passes a profile to Execute/ExecuteSql; always populated when
/// requested, independent of EngineOptions::enable_metrics (an explicit
/// profile is an opt-in, the global registry is the passive layer).
///
/// Work counters (nodes_estimated, cache_*, exec_chunks) are attributed by
/// differencing the engine's own cache/execution statistics around the
/// query, so they are exact when queries run one at a time per engine — the
/// analytics path's usage model. Profiling never changes results: stage
/// timers are observation-only and the counters are reads of state the
/// query produced anyway.
struct QueryProfile {
  enum Stage {
    kParse = 0,     ///< SQL text -> Query AST
    kRewrite,       ///< predicate -> inclusion-exclusion box terms
    kPlan,          ///< plan-cache probe + physical-plan build (planner)
    kFanout,        ///< box -> weight vectors + node decomposition setup
    kEstimate,      ///< mechanism EstimateBox calls (kernel time lives here)
    kAggregate,     ///< combining component estimates (AVG/STDEV arithmetic)
    kNumStages,
  };
  struct StageStats {
    uint64_t wall_nanos = 0;
    uint64_t calls = 0;
  };

  StageStats stages[kNumStages];
  /// Wall time of Execute itself. The parse stage runs before Execute (in
  /// ExecuteSql), so its wall is recorded in stages[kParse] but not here.
  uint64_t total_nanos = 0;

  /// Inclusion-exclusion terms the predicate rewrote into.
  uint64_t ie_terms = 0;
  /// Mechanism EstimateBox calls the executor issued.
  uint64_t estimate_calls = 0;
  /// Hierarchy/grid nodes a kernel estimated; nodes served from the estimate
  /// cache are not counted (they are cache_hits). With the cache on this is
  /// cache_misses; with it off, the `estimate.nodes` kernel counter's delta.
  uint64_t nodes_estimated = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Epoch-invalidation drops observed during this query.
  uint64_t cache_epoch_drops = 0;
  /// Execution-context chunks (ParallelFor/ParallelChunks work items) the
  /// query fanned out.
  uint64_t exec_chunks = 0;
  /// Queries merged into this profile (Merge below); 1 after one Execute.
  uint64_t queries = 0;

  static const char* StageName(Stage stage);

  /// Accumulates another profile (stage-wise sums) — benches aggregate one
  /// profile over a workload.
  void Merge(const QueryProfile& other);

  /// Compact single-object JSON:
  /// {"queries":..,"total_nanos":..,"ie_terms":..,"nodes_estimated":..,
  ///  "cache_hits":..,...,"stages":{"parse":{"wall_nanos":..,"calls":..},..}}
  std::string ToJson() const;
};

/// RAII wall-clock span. On destruction adds the elapsed steady-clock time
/// to a QueryProfile stage, a LatencyHistogram, or both. Passing null for
/// both targets arms nothing — no clock read — so instrumented code paths
/// cost two pointer tests when profiling is off.
class TraceSpan {
 public:
  explicit TraceSpan(QueryProfile* profile, QueryProfile::Stage stage,
                     LatencyHistogram* hist = nullptr)
      : profile_(profile), stage_(stage), hist_(hist) {
    if (profile_ != nullptr || hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  explicit TraceSpan(LatencyHistogram* hist)
      : TraceSpan(nullptr, QueryProfile::kParse, hist) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Stop(); }

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void Stop();

 private:
  QueryProfile* profile_;
  QueryProfile::Stage stage_;
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ldp

#endif  // LDPMDA_OBS_TRACE_H_
