// PlanCache unit behavior (LRU, epoch hard-drop, SQL side index) and the
// engine-level caching contract: repeated queries are pure plan-cache hits,
// and Execute + ExecuteWithBound on the same query rewrite it exactly once
// (the duplicate-rewrite regression).

#include <memory>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "plan/plan_cache.h"

namespace ldp {
namespace {

std::shared_ptr<const PhysicalPlan> MakePlan(uint64_t epoch) {
  auto plan = std::make_shared<PhysicalPlan>();
  plan->epoch = epoch;
  return plan;
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Get("q1", 10), nullptr);
  cache.Put("q1", MakePlan(10));
  const auto plan = cache.Get("q1", 10);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->epoch, 10u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.epoch_drops, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, NewerEpochHardDropsEntry) {
  PlanCache cache(4);
  cache.Put("q1", MakePlan(10));
  // Reports arrived since planning: the entry must be dropped, not served.
  EXPECT_EQ(cache.Get("q1", 11), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.epoch_drops, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The drop is permanent: a probe back at the original epoch misses too.
  EXPECT_EQ(cache.Get("q1", 10), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.epoch_drops, 1u);
}

TEST(PlanCacheTest, OlderEpochHardDropsToo) {
  // Epoch going backwards means the report store was reset; only exact
  // equality proves the plan still describes reality.
  PlanCache cache(4);
  cache.Put("q1", MakePlan(10));
  EXPECT_EQ(cache.Get("q1", 9), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.epoch_drops, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, LruEvictionPrefersStaleEntries) {
  PlanCache cache(2);
  cache.Put("q1", MakePlan(1));
  cache.Put("q2", MakePlan(1));
  ASSERT_NE(cache.Get("q1", 1), nullptr);  // refresh q1: q2 is now LRU
  cache.Put("q3", MakePlan(1));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get("q1", 1), nullptr);
  EXPECT_EQ(cache.Get("q2", 1), nullptr);
  EXPECT_NE(cache.Get("q3", 1), nullptr);
}

TEST(PlanCacheTest, SqlIndexSkipsNothingWhenUnlinked) {
  PlanCache cache(4);
  cache.Put("q1", MakePlan(1));
  // An unknown SQL string is not a keyed miss — the caller falls back to the
  // parse path and the keyed cache may still hit afterwards.
  const auto before = cache.stats();
  EXPECT_EQ(cache.GetSql("SELECT 1", 1), nullptr);
  EXPECT_EQ(cache.stats().misses, before.misses);

  cache.LinkSql("SELECT 1", "q1");
  const auto plan = cache.GetSql("SELECT 1", 1);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.GetSql("SELECT 1", 2), nullptr);  // epoch drop via GetSql
  EXPECT_EQ(cache.stats().epoch_drops, 1u);
}

TEST(PlanCacheTest, EvictionPrunesTheSqlIndex) {
  // The sql_index_ leak/staleness regression: evicting an entry used to
  // leave its SQL mappings behind (or, worse, wipe the whole index). Each
  // mapping must die with exactly its own entry.
  PlanCache cache(2);
  cache.Put("qA", MakePlan(1));
  cache.LinkSql("SELECT A", "qA");
  cache.Put("qB", MakePlan(1));
  cache.LinkSql("SELECT B", "qB");
  EXPECT_EQ(cache.sql_index_size(), 2u);

  // Capacity eviction takes qA (LRU) and only qA's mapping.
  cache.Put("qC", MakePlan(1));
  cache.LinkSql("SELECT C", "qC");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.sql_index_size(), 2u);
  EXPECT_EQ(cache.GetSql("SELECT A", 1), nullptr);
  ASSERT_NE(cache.GetSql("SELECT B", 1), nullptr);  // survivor still linked
  ASSERT_NE(cache.GetSql("SELECT C", 1), nullptr);

  // Epoch hard-drop through the keyed path prunes the mapping too.
  EXPECT_EQ(cache.Get("qB", 2), nullptr);
  EXPECT_EQ(cache.sql_index_size(), 1u);
  EXPECT_EQ(cache.GetSql("SELECT B", 1), nullptr);
}

TEST(PlanCacheTest, LinkSqlAnchorsToLiveEntriesOnly) {
  PlanCache cache(4);
  // Linking to an uncached key is a no-op, not a dangling mapping.
  cache.LinkSql("SELECT X", "missing");
  EXPECT_EQ(cache.sql_index_size(), 0u);

  // Re-linking a spelling moves it between entries cleanly: evicting the
  // old entry afterwards must not take the moved mapping with it.
  cache.Put("q1", MakePlan(1));
  cache.Put("q2", MakePlan(1));
  cache.LinkSql("SELECT X", "q1");
  cache.LinkSql("SELECT X", "q2");
  EXPECT_EQ(cache.sql_index_size(), 1u);
  cache.Put("q1", MakePlan(2));  // refresh drops the old q1 entry
  ASSERT_NE(cache.Get("q2", 1), nullptr);
  ASSERT_NE(cache.GetSql("SELECT X", 1), nullptr);

  // The per-entry alias cap bounds the side index: oldest spelling first.
  for (size_t i = 0; i < PlanCache::kMaxSqlAliases + 2; ++i) {
    cache.LinkSql("SELECT X /* " + std::to_string(i) + " */", "q2");
  }
  EXPECT_EQ(cache.sql_index_size(), PlanCache::kMaxSqlAliases);
  EXPECT_EQ(cache.GetSql("SELECT X /* 0 */", 1), nullptr);
  ASSERT_NE(cache.GetSql("SELECT X /* 3 */", 1), nullptr);
}

// --- Engine-level contract -------------------------------------------------

std::unique_ptr<AnalyticsEngine> MakeEngine(const Table& table,
                                            bool plan_cache = true) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 11;
  options.enable_plan_cache = plan_cache;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

TEST(EnginePlanCacheTest, RepeatedQueryIsAPureHit) {
  const Table table = MakeIpums4D(4000, 54, 7);
  const auto engine = MakeEngine(table);
  const Query query =
      ParseQuery(table.schema(),
                 "SELECT COUNT(*) FROM T WHERE age BETWEEN 10 AND 30")
          .ValueOrDie();

  Counter* hits = GlobalMetrics().counter("plan_cache.hits");
  Counter* misses = GlobalMetrics().counter("plan_cache.misses");

  const double first = engine->Execute(query).ValueOrDie();
  auto stats = engine->plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 0u);

  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine->Execute(query).ValueOrDie(), first);
  }
  stats = engine->plan_cache()->stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);  // pure hits: no further misses
  // The GlobalMetrics mirror moves in lockstep.
  EXPECT_EQ(hits->value() - hits_before, 3u);
  EXPECT_EQ(misses->value() - misses_before, 0u);
}

TEST(EnginePlanCacheTest, RepeatedSqlSkipsTheParse) {
  const Table table = MakeIpums4D(4000, 54, 7);
  const auto engine = MakeEngine(table);
  const char* sql = "SELECT COUNT(*) FROM T WHERE age BETWEEN 10 AND 30";

  const double first = engine->ExecuteSql(sql).ValueOrDie();
  QueryProfile profile;
  EXPECT_EQ(engine->ExecuteSql(sql, &profile).ValueOrDie(), first);
  // The SQL side index answered: no parse stage ran for the repeat.
  EXPECT_EQ(profile.stages[QueryProfile::kParse].calls, 0u);
  EXPECT_GE(engine->plan_cache()->stats().hits, 1u);
}

TEST(EnginePlanCacheTest, ExecuteThenBoundRewritesExactlyOnce) {
  // The duplicate-rewrite regression: ExecuteWithBound used to re-validate
  // and re-rewrite the query after Execute had already done so. Both entry
  // points must share one cached plan — exactly one rewrite between them.
  const Table table = MakeIpums4D(4000, 54, 7);
  const auto engine = MakeEngine(table);
  const Query query =
      ParseQuery(table.schema(),
                 "SELECT COUNT(*) FROM T WHERE age BETWEEN 10 AND 30 OR "
                 "age BETWEEN 40 AND 50")
          .ValueOrDie();

  Counter* rewrites = GlobalMetrics().counter("plan.rewrites");
  const uint64_t before = rewrites->value();
  const double estimate = engine->Execute(query).ValueOrDie();
  const auto bounded = engine->ExecuteWithBound(query).ValueOrDie();
  EXPECT_EQ(bounded.estimate, estimate);
  EXPECT_EQ(rewrites->value() - before, 1u);
}

TEST(EnginePlanCacheTest, DisabledCacheStillAnswersIdentically) {
  const Table table = MakeIpums4D(4000, 54, 7);
  const auto cached = MakeEngine(table, /*plan_cache=*/true);
  const auto uncached = MakeEngine(table, /*plan_cache=*/false);
  EXPECT_EQ(uncached->plan_cache(), nullptr);
  const Query query =
      ParseQuery(table.schema(),
                 "SELECT AVG(weekly_work_hour) FROM T WHERE age <= 25")
          .ValueOrDie();
  const double a = cached->Execute(query).ValueOrDie();
  const double b = uncached->Execute(query).ValueOrDie();
  EXPECT_EQ(a, b);
  // Without a cache every execution replans; with one it must not.
  EXPECT_EQ(uncached->Execute(query).ValueOrDie(), b);
}

}  // namespace
}  // namespace ldp
