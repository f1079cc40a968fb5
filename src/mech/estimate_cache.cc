#include "mech/estimate_cache.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

size_t EstimateCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      HashCombine(HashCombine(k.group, k.node), k.weight_id));
}

EstimateCache::EstimateCache(size_t max_bytes)
    : max_bytes_(max_bytes),
      max_entries_(std::max<size_t>(1, max_bytes / kApproxEntryBytes)),
      m_hits_(GlobalMetrics().counter("estimate_cache.hits")),
      m_misses_(GlobalMetrics().counter("estimate_cache.misses")),
      m_insertions_(GlobalMetrics().counter("estimate_cache.insertions")),
      m_evictions_(GlobalMetrics().counter("estimate_cache.evictions")),
      m_epoch_drops_(GlobalMetrics().counter("estimate_cache.epoch_drops")) {}

bool EstimateCache::Get(uint64_t group, uint64_t node, uint64_t weight_id,
                        uint64_t epoch, double* out) {
  const Key key{group, node, weight_id};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    m_misses_->Add(1);
    return false;
  }
  if (it->second.epoch != epoch) {
    // Epoch mismatch in either direction: a newer query epoch means reports
    // arrived after the entry was stored; an older one means the report
    // state was reset or rebuilt under this cache. Neither matches the
    // current accumulator state, so drop the entry and miss.
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    ++stats_.misses;
    ++stats_.epoch_drops;
    m_misses_->Add(1);
    m_epoch_drops_->Add(1);
    return false;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_it);  // mark most-recent
  *out = it->second.value;
  ++stats_.hits;
  m_hits_->Add(1);
  return true;
}

void EstimateCache::Put(uint64_t group, uint64_t node, uint64_t weight_id,
                        uint64_t epoch, double value) {
  const Key key{group, node, weight_id};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.value = value;
    it->second.epoch = epoch;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= max_entries_) {
    entries_.erase(lru_.front());
    lru_.pop_front();
    ++stats_.evictions;
    m_evictions_->Add(1);
  }
  lru_.push_back(key);
  Entry entry;
  entry.value = value;
  entry.epoch = epoch;
  entry.lru_it = std::prev(lru_.end());
  entries_.emplace(key, entry);
  ++stats_.insertions;
  m_insertions_->Add(1);
}

EstimateCache::Stats EstimateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t EstimateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void EstimateNodesBatched(const ReportStore& store,
                          std::span<const NodeRef> nodes,
                          const WeightVector& w, uint64_t epoch,
                          EstimateCache* cache, const ExecutionContext& exec,
                          std::span<double> out) {
  LDP_CHECK_EQ(nodes.size(), out.size());
  if (nodes.empty()) return;
  if (GlobalMetrics().enabled()) {
    static Counter* nodes_counter = GlobalMetrics().counter("estimate.nodes");
    nodes_counter->Add(static_cast<int64_t>(nodes.size()));
  }

  // Probe the cache; gather misses per group in first-appearance order.
  struct Bucket {
    const FoAccumulator* acc = nullptr;
    uint64_t group = 0;
    std::vector<uint64_t> values;   // node ids to estimate
    std::vector<size_t> positions;  // indices into nodes/out
    uint64_t blocks = 1;
    std::vector<double> partials;   // blocks rows of values.size() each
    std::vector<double> results;
  };
  std::vector<Bucket> buckets;
  std::unordered_map<uint64_t, size_t> bucket_of_group;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeRef& node = nodes[i];
    if (cache != nullptr &&
        cache->Get(node.group, node.node, w.id(), epoch, &out[i])) {
      continue;
    }
    auto [it, inserted] =
        bucket_of_group.try_emplace(node.group, buckets.size());
    if (inserted) {
      buckets.emplace_back();
      buckets.back().group = node.group;
      buckets.back().acc = &store.accumulator(static_cast<int>(node.group));
    }
    Bucket& bucket = buckets[it->second];
    bucket.values.push_back(node.node);
    bucket.positions.push_back(i);
  }
  if (buckets.empty()) return;

  // One task per (bucket, fixed value tile, report block), fanned out over
  // the execution context. Each task writes its own slice of the bucket's
  // partials; the blocks are folded on the caller in block order, which is
  // the same rule the serial EstimateManyWeighted applies, so neither the
  // thread count nor the tiling can change a single output bit.
  struct Task {
    size_t bucket;
    size_t begin;
    size_t end;
    uint64_t block;
  };
  std::vector<Task> tasks;
  for (size_t b = 0; b < buckets.size(); ++b) {
    Bucket& bucket = buckets[b];
    const size_t num_values = bucket.values.size();
    bucket.blocks = bucket.acc->EstimateBlocks();
    bucket.partials.resize(bucket.blocks * num_values);
    for (size_t v0 = 0; v0 < num_values; v0 += kEstimateValueChunk) {
      const size_t v1 = std::min(v0 + kEstimateValueChunk, num_values);
      for (uint64_t block = 0; block < bucket.blocks; ++block) {
        tasks.push_back({b, v0, v1, block});
      }
    }
  }
  if (GlobalMetrics().enabled()) {
    static Counter* batches = GlobalMetrics().counter("estimate.batches");
    batches->Add(static_cast<int64_t>(tasks.size()));
  }
  exec.ParallelFor(tasks.size(), [&](uint64_t t) {
    const Task& task = tasks[t];
    Bucket& bucket = buckets[task.bucket];
    const size_t len = task.end - task.begin;
    bucket.acc->EstimateBlock(
        std::span<const uint64_t>(bucket.values.data() + task.begin, len), w,
        task.block,
        std::span<double>(bucket.partials.data() +
                              task.block * bucket.values.size() + task.begin,
                          len));
  });

  // Fold + finish, then scatter and fill the cache, in deterministic
  // (bucket, position) order.
  for (Bucket& bucket : buckets) {
    const size_t num_values = bucket.values.size();
    bucket.results.resize(num_values);
    for (uint64_t block = 0; block < bucket.blocks; ++block) {
      FoldBlockPartial(
          block,
          std::span<const double>(bucket.partials.data() + block * num_values,
                                  num_values),
          bucket.results);
    }
    bucket.acc->FinishBlocks(bucket.values, w, bucket.results);
    for (size_t k = 0; k < num_values; ++k) {
      out[bucket.positions[k]] = bucket.results[k];
      if (cache != nullptr) {
        cache->Put(bucket.group, bucket.values[k], w.id(), epoch,
                   bucket.results[k]);
      }
    }
  }
}

}  // namespace ldp
