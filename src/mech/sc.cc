#include "mech/sc.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

namespace {
constexpr uint64_t kMaxSubQueries = 1ull << 20;
/// With at most this many sub-queries, the per-user inner sum dominates and
/// is chunk-parallelized; above it, the sub-queries themselves fan out (with
/// chunk-grouped serial inner sums). Fixed constant — never
/// thread-count-dependent — so the floating-point grouping for a given query
/// is always the same. Both branches group the inner sum by the same fixed
/// chunk size, so a sub-query's value is identical whichever branch computes
/// it — the property that lets values be cached across query shapes.
constexpr uint64_t kParallelInnerMaxSubQueries = 64;
/// Probe/fill the node-estimate cache only for decompositions at most this
/// large; bigger fan-outs would churn the cache with entries unlikely to be
/// probed again before eviction.
constexpr uint64_t kMaxCachedSubQueries = 4096;
}  // namespace

ScMechanism::ScMechanism(const Schema& schema, const MechanismParams& params)
    : Mechanism(schema, params) {
  grid_ = std::make_unique<LevelGrid>(BuildHierarchies(schema, params.fanout));
}

Status ScMechanism::Init() {
  int total_levels = 0;
  group_offset_.resize(grid_->num_dims());
  for (int i = 0; i < grid_->num_dims(); ++i) {
    group_offset_[i] = total_levels;
    total_levels += grid_->dim(i).height();
  }
  LDP_CHECK_GT(total_levels, 0);
  per_report_epsilon_ = params_.epsilon / static_cast<double>(total_levels);
  for (int i = 0; i < grid_->num_dims(); ++i) {
    for (int j = 1; j <= grid_->dim(i).height(); ++j) {
      protocols_.push_back(std::make_unique<OlhProtocol>(
          per_report_epsilon_, grid_->dim(i).NumIntervals(j),
          params_.hash_pool_size));
    }
  }
  seeds_.resize(protocols_.size());
  ys_.resize(protocols_.size());
  // All groups share (eps', g), hence the same inverse-transition factors.
  const OlhProtocol& proto = *protocols_[0];
  c1_ = (1.0 - proto.q()) / (proto.p() - proto.q());
  c0_ = -proto.q() / (proto.p() - proto.q());
  return Status::OK();
}

Result<std::unique_ptr<ScMechanism>> ScMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  if (params.fo_kind != FoKind::kOlh) {
    return Status::InvalidArgument(
        "SC's conjunctive estimator requires the OLH frequency oracle");
  }
  std::unique_ptr<ScMechanism> mech(new ScMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport ScMechanism::EncodeUser(std::span<const uint32_t> values,
                                  Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), grid_->num_dims());
  LdpReport report;
  report.entries.reserve(protocols_.size());
  for (int i = 0; i < grid_->num_dims(); ++i) {
    for (int j = 1; j <= grid_->dim(i).height(); ++j) {
      const int group = GroupOf(i, j);
      const uint64_t interval = grid_->dim(i).IntervalIndexOf(values[i], j);
      report.entries.push_back(
          {static_cast<uint32_t>(group),
           protocols_[group]->Encode(interval, rng)});
    }
  }
  return report;
}

Status ScMechanism::ValidateReport(const LdpReport& report) const {
  if (report.entries.size() != protocols_.size()) {
    return Status::InvalidArgument("SC report must cover every (dim, level)");
  }
  for (size_t i = 0; i < report.entries.size(); ++i) {
    if (report.entries[i].group >= protocols_.size()) {
      return Status::OutOfRange("bad group id in SC report");
    }
    // Every group exactly once, in group order: a repeated group would
    // misalign the per-group seeds_/ys_ with users_.
    if (report.entries[i].group != i) {
      return Status::InvalidArgument("SC report entries out of group order");
    }
  }
  return Status::OK();
}

Status ScMechanism::AddReport(const LdpReport& report, uint64_t user) {
  LDP_RETURN_NOT_OK(ValidateReport(report));
  for (const auto& entry : report.entries) {
    seeds_[entry.group].push_back(entry.fo.seed);
    ys_[entry.group].push_back(entry.fo.value);
  }
  users_.push_back(user);
  ++num_reports_;
  return Status::OK();
}

Status ScMechanism::Merge(Mechanism&& shard) {
  auto* other = dynamic_cast<ScMechanism*>(&shard);
  if (other == nullptr) {
    return Status::InvalidArgument("cannot merge a non-SC shard");
  }
  if (other->protocols_.size() != protocols_.size()) {
    return Status::InvalidArgument("SC shard has mismatched group count");
  }
  for (size_t g = 0; g < protocols_.size(); ++g) {
    seeds_[g].insert(seeds_[g].end(), other->seeds_[g].begin(),
                     other->seeds_[g].end());
    ys_[g].insert(ys_[g].end(), other->ys_[g].begin(), other->ys_[g].end());
    other->seeds_[g].clear();
    other->ys_[g].clear();
  }
  users_.insert(users_.end(), other->users_.begin(), other->users_.end());
  other->users_.clear();
  num_reports_ += other->num_reports_;
  other->num_reports_ = 0;
  return Status::OK();
}

Result<double> ScMechanism::VarianceBound(std::span<const Interval> ranges,
                                          const WeightVector& weights) const {
  const int d = grid_->num_dims();
  if (static_cast<int>(ranges.size()) != d) {
    return Status::InvalidArgument("VarianceBound needs one range per dim");
  }
  // Per-dimension conjunctive-factor second moment (Prop. 10): the worst of
  // the two input states B in {0, 1}.
  const OlhProtocol& proto = *protocols_[0];
  const double p = proto.p();
  const double q = proto.q();
  const double factor = std::max(c1_ * c1_ * p + c0_ * c0_ * (1.0 - p),
                                 c1_ * c1_ * q + c0_ * c0_ * (1.0 - q));
  double sub_queries = 1.0;
  double per_user = 1.0;
  for (int i = 0; i < d; ++i) {
    std::vector<LevelInterval> pieces;
    LDP_RETURN_NOT_OK(grid_->dim(i).Decompose(ranges[i], &pieces));
    sub_queries *= static_cast<double>(pieces.size());
    // A root piece ('*') contributes no factor.
    if (!(pieces.size() == 1 && pieces[0].level == 0)) per_user *= factor;
  }
  return sub_queries * per_user * weights.sum_squares();
}

Result<double> ScMechanism::EstimateBox(std::span<const Interval> ranges,
                                        const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  const int d = grid_->num_dims();
  if (static_cast<int>(ranges.size()) != d) {
    return Status::InvalidArgument("EstimateBox needs one range per dim");
  }
  // Per-dimension decompositions (eq. 20's pieces).
  std::vector<std::vector<LevelInterval>> pieces(d);
  uint64_t product = 1;
  for (int i = 0; i < d; ++i) {
    LDP_RETURN_NOT_OK(grid_->dim(i).Decompose(ranges[i], &pieces[i]));
    product *= pieces[i].size();
    if (product > kMaxSubQueries) {
      return Status::ResourceExhausted("box decomposes into too many pieces");
    }
  }
  const size_t n = users_.size();

  // Decode a flat sub-query rank into per-dimension piece picks (last
  // dimension fastest, matching the serial odometer order).
  const auto PicksOf = [&](uint64_t rank, std::vector<size_t>* pick) {
    for (int i = d - 1; i >= 0; --i) {
      (*pick)[i] = rank % pieces[i].size();
      rank /= pieces[i].size();
    }
  };

  // Cache probe. A sub-query is one node of the d-dim level grid, so its
  // canonical key is (flat level tuple, flat cell) — exact and independent
  // of which query shape decomposed to it. Values are grouping-independent
  // too (both computation branches below chunk the inner sum identically),
  // so a value cached by one query is the bit-exact value any other query
  // would compute for the same node.
  EstimateCache* cache =
      product <= kMaxCachedSubQueries ? estimate_cache() : nullptr;
  std::vector<double> value(product, 0.0);
  std::vector<char> cached(product, 0);
  std::vector<uint64_t> key_group, key_node;
  uint64_t num_cached = 0;
  if (cache != nullptr) {
    key_group.resize(product);
    key_node.resize(product);
    std::vector<size_t> pick(d, 0);
    std::vector<int> levels(d, 0);
    std::vector<uint64_t> intervals(d, 0);
    for (uint64_t rank = 0; rank < product; ++rank) {
      PicksOf(rank, &pick);
      for (int i = 0; i < d; ++i) {
        levels[i] = pieces[i][pick[i]].level;
        intervals[i] = pieces[i][pick[i]].index;
      }
      key_group[rank] = grid_->FlatOf(levels);
      key_node[rank] = grid_->CellOfIntervals(levels, intervals);
      if (cache->Get(key_group[rank], key_node[rank], weights.id(),
                     num_reports_, &value[rank])) {
        cached[rank] = 1;
        ++num_cached;
      }
    }
  }

  std::vector<uint64_t> todo;
  todo.reserve(product - num_cached);
  for (uint64_t rank = 0; rank < product; ++rank) {
    if (!cached[rank]) todo.push_back(rank);
  }

  // Precompute per-user conjunctive factors c(A_i(t)) in {c0, c1}, but only
  // for pieces some uncached sub-query actually uses; root pieces (level 0,
  // '*') contribute factor 1 and keep an empty vector. Pieces sharing a
  // (dim, level) group batch into ONE pass over that group's reports — the
  // report's seed hash base is computed once and evaluated against every
  // member piece — instead of one full pass per piece.
  std::vector<std::vector<std::vector<float>>> factors(d);
  if (!todo.empty()) {
    std::vector<std::vector<char>> needed(d);
    for (int i = 0; i < d; ++i) {
      factors[i].resize(pieces[i].size());
      needed[i].assign(pieces[i].size(), 0);
    }
    std::vector<size_t> pick(d, 0);
    for (const uint64_t rank : todo) {
      PicksOf(rank, &pick);
      for (int i = 0; i < d; ++i) needed[i][pick[i]] = 1;
    }
    struct GroupJob {
      int group = 0;
      std::vector<std::pair<int, size_t>> members;  // (dim, piece index)
    };
    std::vector<GroupJob> jobs;
    std::unordered_map<int, size_t> job_of_group;
    for (int i = 0; i < d; ++i) {
      for (size_t p = 0; p < pieces[i].size(); ++p) {
        if (!needed[i][p] || pieces[i][p].level == 0) continue;
        const int group = GroupOf(i, pieces[i][p].level);
        auto [it, inserted] = job_of_group.try_emplace(group, jobs.size());
        if (inserted) {
          jobs.emplace_back();
          jobs.back().group = group;
        }
        jobs[it->second].members.push_back({i, p});
      }
    }
    const float c1f = static_cast<float>(c1_);
    const float c0f = static_cast<float>(c0_);
    exec().ParallelFor(jobs.size(), [&](uint64_t j) {
      const GroupJob& job = jobs[j];
      const OlhProtocol& proto = *protocols_[job.group];
      const uint32_t g = proto.g();
      const auto& seeds = seeds_[job.group];
      const auto& ys = ys_[job.group];
      for (const auto& [i, p] : job.members) factors[i][p].resize(n);
      for (size_t t = 0; t < n; ++t) {
        const uint64_t base = SeededHashFamily::SeedBase(seeds[t]);
        const uint32_t y = ys[t];
        for (const auto& [i, p] : job.members) {
          factors[i][p][t] =
              SeededHashFamily::EvalWithBase(base, pieces[i][p].index, g) == y
                  ? c1f
                  : c0f;
        }
      }
    });
  }

  // One sub-query's conjunctive sum over the user range [begin, end)
  // (eq. 42).
  const auto SubQuerySum = [&](uint64_t rank, size_t begin,
                               size_t end) -> double {
    std::vector<size_t> pick(d, 0);
    PicksOf(rank, &pick);
    double sub = 0.0;
    for (size_t t = begin; t < end; ++t) {
      double prod = weights[users_[t]];
      for (int i = 0; i < d; ++i) {
        const auto& f = factors[i][pick[i]];
        if (!f.empty()) prod *= f[t];
      }
      sub += prod;
    }
    return sub;
  };

  // Compute the uncached sub-queries. Few sub-queries: the O(n d) inner
  // sums are chunk-parallelized one sub-query at a time. Many sub-queries:
  // they fan out into per-rank slots with serial inner sums (never both —
  // nested fan-out could exhaust the worker pool), grouped by the same
  // fixed chunk size. Both groupings depend only on n, so a sub-query's
  // value is bit-identical for every thread count and either branch.
  if (product <= kParallelInnerMaxSubQueries) {
    for (const uint64_t rank : todo) {
      value[rank] = exec().ParallelSumChunks(
          n, kExecSumChunk, [&](uint64_t begin, uint64_t end) {
            return SubQuerySum(rank, begin, end);
          });
    }
  } else {
    exec().ParallelFor(todo.size(), [&](uint64_t idx) {
      const uint64_t rank = todo[idx];
      double sum = 0.0;
      for (size_t begin = 0; begin < n; begin += kExecSumChunk) {
        sum += SubQuerySum(rank, begin,
                           std::min<size_t>(begin + kExecSumChunk, n));
      }
      value[rank] = sum;
    });
  }
  if (cache != nullptr) {
    for (const uint64_t rank : todo) {
      cache->Put(key_group[rank], key_node[rank], weights.id(), num_reports_,
                 value[rank]);
    }
  }

  // Total in rank order — cached and freshly computed values interleave
  // without changing the floating-point grouping.
  double total = 0.0;
  for (const double v : value) total += v;
  return total;
}

}  // namespace ldp
