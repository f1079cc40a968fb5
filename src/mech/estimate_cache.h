#ifndef LDPMDA_MECH_ESTIMATE_CACHE_H_
#define LDPMDA_MECH_ESTIMATE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>

#include "fo/frequency_oracle.h"
#include "obs/metrics.h"

namespace ldp {

class ExecutionContext;

/// Number of values per EstimateBlock call when a batched estimation
/// fan-out is split across the execution context. Fixed — never derived from
/// the thread count — so the tiling of a fan-out depends only on its size;
/// the kernels additionally guarantee per-value results are independent of
/// the tiling, so this constant is a throughput knob, not a correctness one.
inline constexpr size_t kEstimateValueChunk = 256;

/// One node of a mechanism's estimation fan-out: `group` selects the report
/// group (accumulator), `node` the value inside that group's domain.
struct NodeRef {
  uint64_t group = 0;
  uint64_t node = 0;
};

/// A bounded cross-query memo of per-node estimates keyed by
/// (group, node, weight-vector id). Box queries decompose into node sets
/// that repeat across queries — identical boxes trivially, overlapping boxes
/// through shared hierarchy nodes — and under LDP a node estimate is pure
/// post-processing of the reports, so recomputing one is pure waste.
///
/// Invalidation is by epoch: each entry records the mechanism's report count
/// at insertion, and a Get whose epoch differs from the stored one — in
/// EITHER direction — treats the entry as a miss and drops it. A newer epoch
/// means reports arrived after the value was computed; an older epoch means
/// the report state was reset or rebuilt (e.g. a fresh server reusing the
/// cache), and the stored value describes data that no longer exists. Only
/// exact equality proves the entry matches the current accumulator state.
/// Ingestion therefore never touches the cache — no lock on the Add/Merge
/// path and O(1) invalidation of arbitrarily many entries.
///
/// Entries are evicted least-recently-used once the estimated footprint
/// exceeds `max_bytes`. All methods are thread-safe behind one internal
/// mutex; the critical sections are tiny next to an estimate computation.
///
/// Caching never changes results: a stored value is the bit-exact output of
/// the estimation kernel for the same (reports, weight vector), so queries
/// answer identically with the cache on or off.
class EstimateCache {
 public:
  explicit EstimateCache(size_t max_bytes);

  /// Looks up (group, node, weight_id). On a hit at the exact same epoch,
  /// writes the stored estimate to *out and returns true. An entry found at
  /// any other epoch — newer or older — is erased and counted as both a miss
  /// and an epoch_drop.
  bool Get(uint64_t group, uint64_t node, uint64_t weight_id, uint64_t epoch,
           double* out);

  /// Inserts or refreshes an entry, evicting LRU entries to stay in budget.
  void Put(uint64_t group, uint64_t node, uint64_t weight_id, uint64_t epoch,
           double value);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Misses caused by an epoch mismatch (entry present but stale or from a
    /// reset/rebuilt report state). Always <= misses.
    uint64_t epoch_drops = 0;
  };
  Stats stats() const;

  /// Number of live entries (stale ones included until they are touched).
  uint64_t size() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Key {
    uint64_t group;
    uint64_t node;
    uint64_t weight_id;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    double value = 0.0;
    uint64_t epoch = 0;
    std::list<Key>::iterator lru_it;
  };

  /// Rough per-entry footprint: hash-map node + LRU list node + slack.
  static constexpr size_t kApproxEntryBytes = 112;

  size_t max_bytes_;
  size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  /// LRU order, front = least recently used; entries hold their iterator.
  std::list<Key> lru_;
  Stats stats_;

  /// GlobalMetrics mirrors of stats_ (estimate_cache.*), resolved once.
  Counter* m_hits_;
  Counter* m_misses_;
  Counter* m_insertions_;
  Counter* m_evictions_;
  Counter* m_epoch_drops_;
};

/// Estimates every node of `nodes` against `w`, writing out[i] for
/// nodes[i]: probes `cache` first (when non-null, validated against
/// `epoch`), gathers the misses per group, runs one EstimateBlock task per
/// (group, fixed-size value tile, report block) fanned out over `exec`,
/// folds each group's block partials in block order and finishes them on
/// the caller, then scatters results and fills the cache in deterministic
/// node order. Bit-identical to a serial per-node EstimateWeighted loop for
/// any thread count and any cache state.
void EstimateNodesBatched(const ReportStore& store,
                          std::span<const NodeRef> nodes,
                          const WeightVector& w, uint64_t epoch,
                          EstimateCache* cache, const ExecutionContext& exec,
                          std::span<double> out);

}  // namespace ldp

#endif  // LDPMDA_MECH_ESTIMATE_CACHE_H_
