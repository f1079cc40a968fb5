#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "mech/multi.h"
#include "query/plan.h"

namespace ldp {

namespace {

Counter* BatchQueries() {
  static Counter* c = GlobalMetrics().counter("plan.batch_queries");
  return c;
}

/// The executed plan's measured actuals, from its locally profiled run.
PlanObservation ObservationOf(const QueryProfile& local) {
  PlanObservation obs;
  obs.wall_nanos = local.total_nanos;
  obs.estimate_calls = local.estimate_calls;
  obs.nodes_touched = local.nodes_estimated + local.cache_hits;
  return obs;
}

}  // namespace

Result<std::unique_ptr<AnalyticsEngine>> AnalyticsEngine::Create(
    const Table& table, const EngineOptions& options) {
  std::unique_ptr<AnalyticsEngine> engine(
      new AnalyticsEngine(table, options));
  // Process-wide switch: the registry gates every counter/histogram/span in
  // the library, so one engine configures observability for the process.
  GlobalMetrics().set_enabled(options.enable_metrics);
  // Process-wide like the metrics switch; LDP_CHECK-fatal on a forced level
  // this host cannot run (a silent fallback would record benchmarks under
  // the wrong kernel label).
  SetSimdLevel(options.simd_level);
  engine->exec_ = std::make_unique<ExecutionContext>(options.num_threads);
  // Registered mechanism set: `mechanisms` (when non-empty) overrides the
  // single-mechanism `mechanism` field. Two or more kinds build the
  // MultiMechanism composite (user-partitioned budget, per-plan dispatch);
  // one kind is the classic single-mechanism deployment.
  std::vector<MechanismKind> kinds = options.mechanisms;
  if (kinds.empty()) kinds.push_back(options.mechanism);
  if (kinds.size() > 1) {
    LDP_ASSIGN_OR_RETURN(
        auto multi,
        MultiMechanism::Create(table.schema(), options.params, kinds));
    engine->mechanism_ = std::move(multi);
  } else {
    LDP_ASSIGN_OR_RETURN(
        engine->mechanism_,
        CreateMechanism(kinds[0], table.schema(), options.params));
  }
  engine->mechanism_->set_execution_context(engine->exec_.get());
  if (options.enable_estimate_cache && options.estimate_cache_bytes > 0) {
    engine->mechanism_->EnableEstimateCache(options.estimate_cache_bytes);
  }
  PlannerOptions planner_options;
  planner_options.enable_consistency = options.planner_consistency;
  engine->planner_ = std::make_unique<Planner>(table.schema(), kinds,
                                               options.params,
                                               planner_options);
  if (options.enable_feedback) {
    engine->plan_stats_ = std::make_unique<PlanStatsStore>();
  }
  if (options.enable_plan_cache && options.plan_cache_entries > 0) {
    engine->plan_cache_ =
        std::make_unique<PlanCache>(options.plan_cache_entries);
  }
  engine->executor_ = std::make_unique<PlanExecutor>(
      table, *engine->mechanism_, *engine->exec_);

  // Simulated collection, shard-parallel (DESIGN.md "Execution model"): rows
  // are split into fixed kExecChunkRows chunks and chunk c is encoded with
  // the substream master.Fork(c), so every report is the same bit pattern
  // for every thread count. Each worker ingests a contiguous chunk range
  // into a private shard mechanism; merging the shards in worker order then
  // reproduces the exact sequential report order.
  const Schema& schema = table.schema();
  const auto& sensitive = schema.sensitive_dims();
  std::vector<const std::vector<uint32_t>*> columns;
  columns.reserve(sensitive.size());
  for (const int attr : sensitive) columns.push_back(&table.DimColumn(attr));
  const uint64_t n = table.num_rows();
  const Rng master(options.seed);
  const uint64_t num_chunks = (n + kExecChunkRows - 1) / kExecChunkRows;
  const uint64_t num_workers =
      std::max<uint64_t>(1, std::min<uint64_t>(engine->exec_->num_threads(),
                                               num_chunks));

  std::vector<std::unique_ptr<Mechanism>> shards(num_workers);
  for (auto& shard : shards) {
    LDP_ASSIGN_OR_RETURN(shard, engine->mechanism_->NewShard());
  }
  std::vector<Status> worker_status(num_workers, Status::OK());
  engine->exec_->ParallelFor(num_workers, [&](uint64_t w) {
    Mechanism& shard = *shards[w];
    const uint64_t chunk_begin = w * num_chunks / num_workers;
    const uint64_t chunk_end = (w + 1) * num_chunks / num_workers;
    std::vector<uint32_t> values(sensitive.size());
    for (uint64_t c = chunk_begin; c < chunk_end; ++c) {
      Rng rng = master.Fork(c);
      const uint64_t row_end = std::min(n, (c + 1) * kExecChunkRows);
      for (uint64_t row = c * kExecChunkRows; row < row_end; ++row) {
        for (size_t i = 0; i < sensitive.size(); ++i) {
          values[i] = (*columns[i])[row];
        }
        const LdpReport report = shard.EncodeUser(values, rng);
        const Status status = shard.AddReport(report, row);
        if (!status.ok()) {
          worker_status[w] = status;
          return;
        }
      }
    }
  });
  for (const Status& status : worker_status) LDP_RETURN_NOT_OK(status);
  for (auto& shard : shards) {
    LDP_RETURN_NOT_OK(engine->mechanism_->Merge(std::move(*shard)));
  }
  return engine;
}

Result<std::shared_ptr<const PhysicalPlan>> AnalyticsEngine::GetPlan(
    const Query& query, QueryProfile* profile) const {
  const uint64_t epoch = mechanism_->num_reports();
  std::string key;
  {
    TraceSpan probe_span(profile, QueryProfile::kPlan);
    if (plan_cache_ != nullptr) {
      key = QueryCacheKey(schema(), query);
      if (auto plan = plan_cache_->Get(key, epoch)) {
        return plan;
      }
    }
  }
  TraceSpan rewrite_span(profile, QueryProfile::kRewrite);
  auto logical = BuildLogicalPlan(schema(), query);
  rewrite_span.Stop();
  LDP_RETURN_NOT_OK(logical.status());
  TraceSpan build_span(profile, QueryProfile::kPlan);
  LDP_ASSIGN_OR_RETURN(PhysicalPlan physical,
                       planner_->Plan(std::move(logical).value(), epoch));
  build_span.Stop();
  GlobalMetrics()
      .counter(std::string("plan.mechanism_choices.") +
               MechanismKindName(physical.mechanism))
      ->Increment();
  auto plan = std::make_shared<const PhysicalPlan>(std::move(physical));
  if (plan_cache_ != nullptr) plan_cache_->Put(key, plan);
  return plan;
}

Result<double> AnalyticsEngine::ExecuteRecorded(
    const Query* query, std::shared_ptr<const PhysicalPlan> plan,
    QueryProfile* profile) const {
  // Recording runs against a local profile so the observation carries THIS
  // execution's actuals; merging it into the caller's profile afterwards
  // keeps the caller's totals identical to the unrecorded path. With neither
  // a profile nor recording, `prof` is null and nothing reads a clock.
  QueryProfile local;
  QueryProfile* prof = plan_stats_ != nullptr ? &local : profile;
  const Result<double> result = [&]() -> Result<double> {
    ProfiledQueryScope scope(prof, *mechanism_, *exec_);
    if (query != nullptr) {
      LDP_ASSIGN_OR_RETURN(plan, GetPlan(*query, prof));
    }
    return executor_->Run(*plan, prof);
  }();
  if (plan_stats_ == nullptr) return result;
  if (profile != nullptr) profile->Merge(local);
  if (result.ok()) {
    plan_stats_->Record(PlanIdentityOf(*plan), ObservationOf(local));
  }
  return result;
}

Result<double> AnalyticsEngine::Execute(const Query& query,
                                        QueryProfile* profile) const {
  return ExecuteRecorded(&query, nullptr, profile);
}

Result<double> AnalyticsEngine::ExecuteSql(std::string_view sql,
                                           QueryProfile* profile) const {
  // SQL side index: a repeated SQL string maps straight to its cached plan,
  // skipping the parse as well. The index never stores plans itself — the
  // epoch check happens in the keyed cache it points into.
  if (plan_cache_ != nullptr) {
    if (auto plan = plan_cache_->GetSql(std::string(sql),
                                        mechanism_->num_reports())) {
      return ExecuteRecorded(nullptr, std::move(plan), profile);
    }
  }
  TraceSpan parse_span(profile, QueryProfile::kParse);
  auto parsed = ParseQuery(schema(), sql);
  parse_span.Stop();
  LDP_RETURN_NOT_OK(parsed.status());
  LDP_ASSIGN_OR_RETURN(const double result, Execute(parsed.value(), profile));
  if (plan_cache_ != nullptr) {
    plan_cache_->LinkSql(std::string(sql),
                         QueryCacheKey(schema(), parsed.value()));
  }
  return result;
}

Result<AnalyticsEngine::BoundedEstimate> AnalyticsEngine::ExecuteWithBound(
    const Query& query) const {
  LDP_RETURN_NOT_OK(ValidateQuery(schema(), query));
  if (query.aggregate.kind != AggregateKind::kCount &&
      query.aggregate.kind != AggregateKind::kSum) {
    return Status::InvalidArgument(
        "error bounds are supported for COUNT and SUM");
  }
  // One plan serves both entry points: if Execute already planned (or ran)
  // this query, the rewrite is not repeated here.
  LDP_ASSIGN_OR_RETURN(const auto plan, GetPlan(query, nullptr));
  LDP_ASSIGN_OR_RETURN(const PlanExecutor::Bounded bounded,
                       executor_->RunWithBound(*plan));
  return BoundedEstimate{bounded.estimate, bounded.stddev};
}

Status AnalyticsEngine::ExecuteBatch(std::span<const Query> queries,
                                     std::span<double> out,
                                     QueryProfile* profile) const {
  if (out.size() < queries.size()) {
    return Status::InvalidArgument("ExecuteBatch: output span too small");
  }
  BatchQueries()->Add(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    LDP_ASSIGN_OR_RETURN(out[i], Execute(queries[i], profile));
  }
  return Status::OK();
}

Result<std::shared_ptr<const PhysicalPlan>> AnalyticsEngine::PlanFor(
    const Query& query) const {
  LDP_ASSIGN_OR_RETURN(auto plan, GetPlan(query, nullptr));
  if (plan_stats_ == nullptr) return plan;
  return std::make_shared<const PhysicalPlan>(WithLiveFeedback(*plan));
}

PhysicalPlan AnalyticsEngine::WithLiveFeedback(
    const PhysicalPlan& plan) const {
  PhysicalPlan live = plan;
  if (const auto stats = plan_stats_->Lookup(plan.fingerprint)) {
    live.feedback.observations = stats->observations;
    live.feedback.wall_nanos = stats->ewma_wall_nanos;
    live.feedback.estimate_calls = stats->ewma_estimate_calls;
    live.feedback.nodes = stats->ewma_nodes;
  }
  return live;
}

Result<std::string> AnalyticsEngine::Explain(const Query& query) const {
  LDP_ASSIGN_OR_RETURN(const auto plan, GetPlan(query, nullptr));
  if (plan_stats_ != nullptr) return WithLiveFeedback(*plan).ToText(schema());
  return plan->ToText(schema());
}

Result<std::string> AnalyticsEngine::ExplainSql(std::string_view sql) const {
  LDP_ASSIGN_OR_RETURN(const SqlStatement stmt, ParseStatement(schema(), sql));
  return Explain(stmt.query);
}

double AnalyticsEngine::AbsWeightTotal(const Query& query) const {
  if (query.aggregate.kind == AggregateKind::kCount) {
    return static_cast<double>(table_.num_rows());
  }
  double total = 0.0;
  for (uint64_t row = 0; row < table_.num_rows(); ++row) {
    total += std::abs(query.aggregate.expr.Eval(table_, row));
  }
  return total;
}

}  // namespace ldp
