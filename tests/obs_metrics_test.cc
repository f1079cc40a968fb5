// Unit tests for the observability subsystem (src/obs): sharded counters,
// gauges, fixed-bucket latency histograms, the metrics registry with its
// enabled gate and JSON snapshot, RAII trace spans, and per-query profiles —
// plus the engine-level guarantee that metrics and profiling are purely
// observational (estimates bit-identical with metrics on or off, at any
// thread count).

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ldp {
namespace {

// --- Counter ---------------------------------------------------------------

TEST(CounterTest, AddAndValue) {
  MetricsRegistry registry;
  Counter* c = registry.counter("t.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Add(5);
  c->Increment();
  EXPECT_EQ(c->value(), 6u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  MetricsRegistry registry;
  Counter* c = registry.counter("t.concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(CounterTest, DisabledRegistryDropsIncrements) {
  MetricsRegistry registry;
  Counter* c = registry.counter("t.gated");
  c->Add(3);
  registry.set_enabled(false);
  c->Add(100);
  EXPECT_EQ(c->value(), 3u);
  registry.set_enabled(true);
  c->Add(1);
  EXPECT_EQ(c->value(), 4u);
}

// --- Gauge -----------------------------------------------------------------

TEST(GaugeTest, SetAddAndGate) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("t.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
  registry.set_enabled(false);
  g->Set(999);
  g->Add(999);
  EXPECT_EQ(g->value(), 7);
  registry.set_enabled(true);
}

// --- LatencyHistogram ------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i holds [2^i, 2^(i+1)); 0 shares bucket 0 with 1.
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 9u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 10u);
  // Everything at or above 2^41 clamps into the last bucket.
  EXPECT_EQ(LatencyHistogram::BucketOf(1ull << 41),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(HistogramTest, RecordCountSumAndQuantiles) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("t.hist");
  EXPECT_EQ(h->QuantileUpperBound(0.5), 0u);  // empty
  // 99 samples in bucket [64, 128), one far outlier in [65536, 131072).
  for (int i = 0; i < 99; ++i) h->Record(100);
  h->Record(100000);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_EQ(h->sum_nanos(), 99u * 100 + 100000);
  EXPECT_EQ(h->bucket(LatencyHistogram::BucketOf(100)), 99u);
  EXPECT_EQ(h->QuantileUpperBound(0.5), 128u);
  // The 99th of 100 samples is still in the low bucket; the max lands in
  // the outlier's bucket.
  EXPECT_EQ(h->QuantileUpperBound(0.99), 128u);
  EXPECT_EQ(h->QuantileUpperBound(1.0), 131072u);
}

TEST(HistogramTest, QuantileDerivesNFromTheBucketSnapshot) {
  // The quantile race regression: QuantileUpperBound used to read count()
  // and the buckets separately, so a Record() landing in between (count
  // bumped, bucket not yet) could leave the scan short of its target and
  // fall through to the max bucket edge. The fix scans one snapshot whose
  // own sum is n — verify the scan is exact at every rank boundary of a
  // known distribution.
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("t.hist_exact");
  // 4 samples in [2,4), 4 in [16,32), 2 in [1024,2048): n = 10.
  for (int i = 0; i < 4; ++i) h->Record(2);
  for (int i = 0; i < 4; ++i) h->Record(20);
  for (int i = 0; i < 2; ++i) h->Record(1500);
  EXPECT_EQ(h->QuantileUpperBound(0.0), 4u);    // rank 1
  EXPECT_EQ(h->QuantileUpperBound(0.34), 4u);   // rank 4 (last of 1st bucket)
  EXPECT_EQ(h->QuantileUpperBound(0.45), 32u);  // rank 5 boundary
  EXPECT_EQ(h->QuantileUpperBound(0.75), 32u);  // rank 7
  EXPECT_EQ(h->QuantileUpperBound(0.89), 2048u);  // rank 9 boundary
  EXPECT_EQ(h->QuantileUpperBound(1.0), 2048u);
  // Out-of-range q clamps instead of under/overflowing the target rank.
  EXPECT_EQ(h->QuantileUpperBound(-0.5), 4u);
  EXPECT_EQ(h->QuantileUpperBound(2.0), 2048u);
}

TEST(HistogramTest, DisabledRegistryDropsRecords) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("t.hist_gated");
  registry.set_enabled(false);
  h->Record(100);
  EXPECT_EQ(h->count(), 0u);
  registry.set_enabled(true);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(RegistryTest, HandlesAreStableAndDeduplicated) {
  MetricsRegistry registry;
  Counter* a = registry.counter("t.same");
  Counter* b = registry.counter("t.same");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("t.other"), a);
}

TEST(RegistryTest, ResetZeroesEverythingKeepingHandles) {
  MetricsRegistry registry;
  Counter* c = registry.counter("t.c");
  Gauge* g = registry.gauge("t.g");
  LatencyHistogram* h = registry.histogram("t.h");
  c->Add(7);
  g->Set(-2);
  h->Record(50);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum_nanos(), 0u);
  c->Add(1);  // handle still live
  EXPECT_EQ(c->value(), 1u);
}

TEST(RegistryTest, SnapshotAndJson) {
  MetricsRegistry registry;
  registry.counter("t.events")->Add(42);
  registry.gauge("t.depth")->Set(-5);
  registry.histogram("t.lat")->Record(100);

  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("t.events"), 42u);
  EXPECT_EQ(snap.gauges.at("t.depth"), -5);
  const auto& hist = snap.histograms.at("t.lat");
  EXPECT_EQ(hist.count, 1u);
  EXPECT_EQ(hist.sum_nanos, 100u);
  ASSERT_EQ(hist.nonzero.size(), 1u);
  EXPECT_EQ(hist.nonzero[0].first, 128u);  // exclusive upper edge of [64,128)
  EXPECT_EQ(hist.nonzero[0].second, 1u);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"t.events\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.depth\":-5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.lat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

TEST(RegistryTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("t.file")->Add(9);
  const std::string path = ::testing::TempDir() + "/obs_metrics_test.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"t.file\":9"), std::string::npos);
}

// --- TraceSpan / QueryProfile ----------------------------------------------

TEST(TraceSpanTest, RecordsIntoProfileStageAndHistogram) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("t.span");
  QueryProfile profile;
  {
    TraceSpan span(&profile, QueryProfile::kEstimate, h);
  }
  EXPECT_EQ(profile.stages[QueryProfile::kEstimate].calls, 1u);
  EXPECT_GT(profile.stages[QueryProfile::kEstimate].wall_nanos, 0u);
  EXPECT_EQ(h->count(), 1u);
}

TEST(TraceSpanTest, StopIsIdempotent) {
  QueryProfile profile;
  TraceSpan span(&profile, QueryProfile::kParse);
  span.Stop();
  const uint64_t after_first = profile.stages[QueryProfile::kParse].wall_nanos;
  span.Stop();  // and the destructor makes a third call
  EXPECT_EQ(profile.stages[QueryProfile::kParse].calls, 1u);
  EXPECT_EQ(profile.stages[QueryProfile::kParse].wall_nanos, after_first);
}

TEST(TraceSpanTest, NullTargetsAreANoOp) {
  TraceSpan span(nullptr, QueryProfile::kParse, nullptr);
  span.Stop();  // nothing to assert beyond "does not crash or record"
}

TEST(QueryProfileTest, StageNamesAreDistinct) {
  EXPECT_STREQ(QueryProfile::StageName(QueryProfile::kParse), "parse");
  EXPECT_STREQ(QueryProfile::StageName(QueryProfile::kAggregate), "aggregate");
}

TEST(QueryProfileTest, MergeSumsEveryField) {
  QueryProfile a;
  a.stages[QueryProfile::kParse] = {100, 1};
  a.total_nanos = 500;
  a.ie_terms = 2;
  a.nodes_estimated = 10;
  a.cache_hits = 3;
  a.cache_misses = 7;
  a.cache_epoch_drops = 1;
  a.exec_chunks = 4;
  a.queries = 1;
  QueryProfile b = a;
  b.Merge(a);
  EXPECT_EQ(b.stages[QueryProfile::kParse].wall_nanos, 200u);
  EXPECT_EQ(b.stages[QueryProfile::kParse].calls, 2u);
  EXPECT_EQ(b.total_nanos, 1000u);
  EXPECT_EQ(b.ie_terms, 4u);
  EXPECT_EQ(b.nodes_estimated, 20u);
  EXPECT_EQ(b.cache_hits, 6u);
  EXPECT_EQ(b.cache_misses, 14u);
  EXPECT_EQ(b.cache_epoch_drops, 2u);
  EXPECT_EQ(b.exec_chunks, 8u);
  EXPECT_EQ(b.queries, 2u);
}

TEST(QueryProfileTest, ToJsonNamesEveryStage) {
  QueryProfile profile;
  profile.queries = 1;
  const std::string json = profile.ToJson();
  for (int s = 0; s < QueryProfile::kNumStages; ++s) {
    EXPECT_NE(json.find(QueryProfile::StageName(
                  static_cast<QueryProfile::Stage>(s))),
              std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("\"queries\":1"), std::string::npos) << json;
}

// --- Engine integration ----------------------------------------------------

const Table& ProfTable() {
  static const Table* table = new Table(MakeIpums4D(2000, 12, /*seed=*/31));
  return *table;
}

TEST(EngineProfileTest, ExecuteSqlFillsTheProfile) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 7;
  const auto engine = AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();

  QueryProfile profile;
  ASSERT_TRUE(engine
                  ->ExecuteSql(
                      "SELECT AVG(weekly_work_hour) FROM T "
                      "WHERE age BETWEEN 2 AND 9 AND sex = 1",
                      &profile)
                  .ok());
  EXPECT_EQ(profile.queries, 1u);
  EXPECT_GT(profile.total_nanos, 0u);
  EXPECT_EQ(profile.stages[QueryProfile::kParse].calls, 1u);
  EXPECT_GT(profile.stages[QueryProfile::kParse].wall_nanos, 0u);
  EXPECT_GT(profile.stages[QueryProfile::kRewrite].calls, 0u);
  // AVG = SUM / COUNT: two components, each with fan-out + estimate spans.
  EXPECT_GE(profile.stages[QueryProfile::kEstimate].calls, 2u);
  EXPECT_GT(profile.stages[QueryProfile::kEstimate].wall_nanos, 0u);
  EXPECT_EQ(profile.stages[QueryProfile::kAggregate].calls, 1u);
  EXPECT_GE(profile.ie_terms, 2u);
  EXPECT_GT(profile.nodes_estimated, 0u);
  // First run on a fresh engine: everything was a cache miss.
  EXPECT_EQ(profile.cache_hits, 0u);
  EXPECT_GT(profile.cache_misses, 0u);
  // Rewrite/fanout/estimate walls are nested inside the total (which covers
  // Execute; parse happens before Execute and is recorded separately).
  const uint64_t nested =
      profile.stages[QueryProfile::kRewrite].wall_nanos +
      profile.stages[QueryProfile::kFanout].wall_nanos +
      profile.stages[QueryProfile::kEstimate].wall_nanos;
  EXPECT_LE(nested, profile.total_nanos);

  // Re-running the identical query is served from the estimate cache.
  QueryProfile second;
  ASSERT_TRUE(engine
                  ->ExecuteSql(
                      "SELECT AVG(weekly_work_hour) FROM T "
                      "WHERE age BETWEEN 2 AND 9 AND sex = 1",
                      &second)
                  .ok());
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_EQ(second.cache_misses, 0u);
}

TEST(EngineProfileTest, CompositeEngineCountsSubMechanismCacheTraffic) {
  // A MultiMechanism holds no estimate cache of its own; its subs do. The
  // profile's cache counters must see their traffic.
  EngineOptions options;
  options.mechanisms = {MechanismKind::kHio, MechanismKind::kMg};
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.seed = 7;
  const auto engine = AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();
  const char* sql =
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9 AND sex = 1";

  QueryProfile first;
  ASSERT_TRUE(engine->ExecuteSql(sql, &first).ok());
  EXPECT_GT(first.cache_misses, 0u);
  EXPECT_EQ(first.nodes_estimated, first.cache_misses);

  QueryProfile second;
  ASSERT_TRUE(engine->ExecuteSql(sql, &second).ok());
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_EQ(second.cache_misses, 0u);
}

TEST(EngineProfileTest, ProfileAccumulatesAcrossQueries) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 7;
  const auto engine = AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();
  QueryProfile profile;
  ASSERT_TRUE(engine
                  ->ExecuteSql("SELECT COUNT(*) FROM T WHERE age BETWEEN 1 AND 5",
                               &profile)
                  .ok());
  ASSERT_TRUE(engine
                  ->ExecuteSql("SELECT COUNT(*) FROM T WHERE age BETWEEN 6 AND 9",
                               &profile)
                  .ok());
  EXPECT_EQ(profile.queries, 2u);
  EXPECT_EQ(profile.stages[QueryProfile::kParse].calls, 2u);
}

// The determinism contract: metrics and profiling are observational only.
// Estimates must be bit-identical with metrics on or off, with or without a
// profile attached, across thread counts.
TEST(EngineProfileTest, MetricsAndProfilingNeverPerturbEstimates) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9",
      "SELECT SUM(weekly_work_hour) FROM T WHERE income BETWEEN 0 AND 5",
      "SELECT AVG(weekly_work_hour) FROM T WHERE age BETWEEN 1 AND 10 "
      "AND sex = 1",
  };

  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 1234;
  options.num_threads = 1;
  options.enable_metrics = true;
  const auto baseline_engine =
      AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();
  std::vector<double> baseline;
  for (const char* sql : sqls) {
    baseline.push_back(baseline_engine->ExecuteSql(sql).ValueOrDie());
  }

  for (const bool metrics_on : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      options.enable_metrics = metrics_on;
      options.num_threads = threads;
      const auto engine =
          AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();
      QueryProfile profile;
      for (size_t i = 0; i < std::size(sqls); ++i) {
        EXPECT_EQ(engine->ExecuteSql(sqls[i], &profile).ValueOrDie(),
                  baseline[i])
            << "metrics=" << metrics_on << " threads=" << threads
            << " query " << i;
      }
      // The explicit profile is populated even with global metrics off.
      EXPECT_EQ(profile.queries, std::size(sqls));
      EXPECT_GT(profile.total_nanos, 0u);
    }
  }
  GlobalMetrics().set_enabled(true);  // restore for other tests in this binary
}

TEST(EngineProfileTest, GlobalRegistryObservesEngineWork) {
  GlobalMetrics().set_enabled(true);
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 7;
  options.num_threads = 2;  // a pool registers the exec.tasks_* metrics
  const auto engine = AnalyticsEngine::Create(ProfTable(), options).ValueOrDie();

  Counter* chunks = GlobalMetrics().counter("exec.chunks");
  Counter* nodes = GlobalMetrics().counter("estimate.nodes");
  Counter* misses = GlobalMetrics().counter("estimate_cache.misses");
  const uint64_t chunks_before = chunks->value();
  const uint64_t nodes_before = nodes->value();
  const uint64_t misses_before = misses->value();
  ASSERT_TRUE(
      engine->ExecuteSql("SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9")
          .ok());
  EXPECT_GT(chunks->value(), chunks_before);
  EXPECT_GT(nodes->value(), nodes_before);
  EXPECT_GT(misses->value(), misses_before);

  const MetricsRegistry::Snapshot snap = GlobalMetrics().TakeSnapshot();
  // Names from the README metrics reference that every engine run exports.
  EXPECT_TRUE(snap.counters.count("exec.chunks"));
  EXPECT_TRUE(snap.counters.count("exec.tasks_submitted"));
  EXPECT_TRUE(snap.counters.count("estimate_cache.hits"));
  EXPECT_TRUE(snap.counters.count("estimate_cache.epoch_drops"));
  EXPECT_TRUE(snap.counters.count("ingest.accepted"));
  EXPECT_TRUE(snap.histograms.count("exec.queue_wait"));
}

}  // namespace
}  // namespace ldp
