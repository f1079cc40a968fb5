#ifndef LDPMDA_PLAN_PLAN_CACHE_H_
#define LDPMDA_PLAN_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "plan/physical.h"

namespace ldp {

/// A bounded LRU cache of physical plans keyed by the canonical query key
/// (QueryCacheKey — lossless, so structurally distinct queries never
/// collide). A repeated query skips validate + rewrite + plan entirely; an
/// optional SQL-text side index additionally skips the parse for repeated
/// SQL strings.
///
/// Invalidation is by report-store epoch, exactly like the estimate cache:
/// each plan records Mechanism::num_reports() at planning time, and a Get
/// whose epoch differs in EITHER direction hard-drops the entry (counted in
/// epoch_drops). Newer means reports arrived since planning; older means the
/// report state was reset — only exact equality proves the plan's cost
/// annotations and epoch stamp still describe reality. (Plan *structure*
/// would survive an epoch change, but a silently stale cost/epoch is worse
/// than a re-plan, and re-planning is microseconds.)
///
/// Sharing cached plans never changes results: a plan is immutable and its
/// execution depends only on (plan, reports, weights) — the executor replays
/// the same op list whether the plan came from the planner or the cache.
///
/// Each cache is private to one engine, whose configuration is fixed at
/// Create(), so the epoch is the only invalidation a plan needs.
///
/// Thread-safe behind one mutex; GlobalMetrics mirrors live under
/// `plan_cache.*` (hits, misses, insertions, evictions, epoch_drops).
class PlanCache {
 public:
  explicit PlanCache(size_t max_entries);

  /// The cached plan for `key` at exactly `epoch`, or null. An entry at any
  /// other epoch is erased and counted as a miss plus an epoch_drop.
  std::shared_ptr<const PhysicalPlan> Get(const std::string& key,
                                          uint64_t epoch);

  /// Inserts or refreshes the plan under `key` (the plan carries its own
  /// epoch), evicting the least-recently-used entry when over budget.
  void Put(const std::string& key, std::shared_ptr<const PhysicalPlan> plan);

  /// SQL side index: the cached plan for a SQL string previously linked with
  /// LinkSql, subject to the same epoch check. Null on any miss.
  std::shared_ptr<const PhysicalPlan> GetSql(const std::string& sql,
                                             uint64_t epoch);
  /// Links `sql` to the cached entry under `key`. A no-op when `key` is not
  /// (or no longer) cached — a dangling mapping could never hit, and the
  /// next ExecuteSql re-links after re-planning. Mappings live and die with
  /// their entry: eviction and epoch drops prune them (no crude
  /// whole-index reset wiping live mappings), and each entry keeps at most
  /// kMaxSqlAliases spellings, oldest dropped first.
  void LinkSql(const std::string& sql, const std::string& key);

  /// Alias spellings one cached entry will hold links for; the side index
  /// is thus bounded by max_entries() x kMaxSqlAliases.
  static constexpr size_t kMaxSqlAliases = 8;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Misses caused by an epoch mismatch. Always <= misses.
    uint64_t epoch_drops = 0;
  };
  Stats stats() const;

  uint64_t size() const;
  size_t max_entries() const { return max_entries_; }
  /// Live SQL->key mappings — bounded because mappings die with their entry.
  size_t sql_index_size() const;

 private:
  struct Entry {
    std::shared_ptr<const PhysicalPlan> plan;
    std::list<std::string>::iterator lru_it;
    /// SQL spellings linked to this entry (insertion order, capped at
    /// kMaxSqlAliases); erased from sql_index_ when the entry dies.
    std::vector<std::string> sql_aliases;
  };

  /// Requires mu_ held. Erases `key` (if present) from entries_, the LRU,
  /// and every sql_index_ mapping that points at it.
  void EraseLocked(const std::string& key);

  size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  /// LRU order, front = least recently used.
  std::list<std::string> lru_;
  /// SQL text -> canonical query key. Bounded by the same entry budget.
  std::unordered_map<std::string, std::string> sql_index_;
  Stats stats_;

  Counter* m_hits_;
  Counter* m_misses_;
  Counter* m_insertions_;
  Counter* m_evictions_;
  Counter* m_epoch_drops_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_PLAN_CACHE_H_
