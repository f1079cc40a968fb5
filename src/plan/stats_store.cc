#include "plan/stats_store.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ldp {

namespace {

/// EWMA weight of the newest observation.
constexpr double kAlpha = 0.25;

}  // namespace

PlanIdentity PlanIdentityOf(const PhysicalPlan& plan) {
  PlanIdentity id;
  id.fingerprint = plan.fingerprint;
  id.mechanism = plan.mechanism;
  id.strategy = plan.strategy;
  return id;
}

PlanStatsStore::PlanStatsStore(size_t max_entries)
    : max_entries_(std::max<size_t>(max_entries, 1)),
      m_records_(GlobalMetrics().counter("plan.feedback_records")),
      m_evictions_(GlobalMetrics().counter("plan.feedback_evictions")) {}

void PlanStatsStore::Record(const PlanIdentity& id,
                            const PlanObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id.fingerprint);
  if (it == entries_.end()) {
    while (entries_.size() >= max_entries_) {
      const uint64_t victim = lru_.front();
      lru_.pop_front();
      entries_.erase(victim);
      m_evictions_->Increment();
    }
    Entry entry;
    entry.stats.id = id;
    entry.lru_it = lru_.insert(lru_.end(), id.fingerprint);
    it = entries_.emplace(id.fingerprint, std::move(entry)).first;
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }
  PlanStats& stats = it->second.stats;
  auto fold = [&stats](double* ewma, uint64_t v) {
    const double value = static_cast<double>(v);
    if (stats.observations == 0) {
      *ewma = value;
    } else {
      *ewma += kAlpha * (value - *ewma);
    }
  };
  fold(&stats.ewma_wall_nanos, obs.wall_nanos);
  fold(&stats.ewma_estimate_calls, obs.estimate_calls);
  fold(&stats.ewma_nodes, obs.nodes_touched);
  ++stats.observations;
  m_records_->Increment();
}

std::optional<PlanStats> PlanStatsStore::Lookup(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return std::nullopt;
  return it->second.stats;
}

std::vector<PlanStats> PlanStatsStore::Snapshot() const {
  std::vector<PlanStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [fingerprint, entry] : entries_) {
      out.push_back(entry.stats);
    }
  }
  std::sort(out.begin(), out.end(), [](const PlanStats& a, const PlanStats& b) {
    return a.id.fingerprint < b.id.fingerprint;
  });
  return out;
}

void PlanStatsStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanStatsStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// --- Replay ----------------------------------------------------------------

namespace {

/// Same fixed formatting as EXPLAIN: report text must be stable across
/// compilers.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatFingerprint(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

}  // namespace

ReplayReport ComparePlanStats(const PlanStatsStore& baseline,
                              const PlanStatsStore& current,
                              double threshold) {
  ReplayReport report;
  report.threshold = threshold;
  const std::vector<PlanStats> base = baseline.Snapshot();
  const std::vector<PlanStats> cur = current.Snapshot();
  std::unordered_map<uint64_t, const PlanStats*> cur_by_fp;
  cur_by_fp.reserve(cur.size());
  for (const PlanStats& s : cur) cur_by_fp.emplace(s.id.fingerprint, &s);
  std::unordered_map<uint64_t, bool> base_seen;
  base_seen.reserve(base.size());
  for (const PlanStats& b : base) {
    base_seen.emplace(b.id.fingerprint, true);
    auto it = cur_by_fp.find(b.id.fingerprint);
    if (it == cur_by_fp.end()) {
      report.only_in_baseline.push_back(b.id.fingerprint);
      continue;
    }
    const PlanStats& c = *it->second;
    ReplayFinding finding;
    finding.id = b.id;
    finding.baseline_observations = b.observations;
    finding.current_observations = c.observations;
    finding.baseline_wall_nanos = b.ewma_wall_nanos;
    finding.current_wall_nanos = c.ewma_wall_nanos;
    finding.baseline_nodes = b.ewma_nodes;
    finding.current_nodes = c.ewma_nodes;
    finding.ratio = b.ewma_wall_nanos > 0.0
                        ? c.ewma_wall_nanos / b.ewma_wall_nanos
                        : 0.0;
    finding.regressed = b.observations > 0 && c.observations > 0 &&
                        c.ewma_wall_nanos > threshold * b.ewma_wall_nanos;
    if (finding.regressed) ++report.num_regressions;
    report.findings.push_back(finding);
  }
  for (const PlanStats& c : cur) {
    if (!base_seen.count(c.id.fingerprint)) {
      report.only_in_current.push_back(c.id.fingerprint);
    }
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const ReplayFinding& a, const ReplayFinding& b) {
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.id.fingerprint < b.id.fingerprint;
            });
  // Snapshot() is fingerprint-sorted, so the only_in_* lists already are.
  return report;
}

std::string ReplayReport::ToText() const {
  std::ostringstream os;
  os << "replay: " << findings.size() << " shared fingerprints, "
     << num_regressions << " regression(s) at threshold "
     << FormatDouble(threshold) << "x\n";
  for (const ReplayFinding& f : findings) {
    os << "  " << (f.regressed ? "REGRESSED " : "ok        ")
       << FormatFingerprint(f.id.fingerprint) << " "
       << MechanismKindName(f.id.mechanism) << "/"
       << PlanStrategyName(f.id.strategy)
       << " wall " << FormatDouble(f.baseline_wall_nanos) << " -> "
       << FormatDouble(f.current_wall_nanos) << " ns (ratio "
       << FormatDouble(f.ratio) << ", obs " << f.baseline_observations << "/"
       << f.current_observations << ")\n";
  }
  if (!only_in_baseline.empty()) {
    os << "  only in baseline:";
    for (const uint64_t fp : only_in_baseline) {
      os << " " << FormatFingerprint(fp);
    }
    os << "\n";
  }
  if (!only_in_current.empty()) {
    os << "  only in current:";
    for (const uint64_t fp : only_in_current) {
      os << " " << FormatFingerprint(fp);
    }
    os << "\n";
  }
  return os.str();
}

std::string ReplayReport::ToJson() const {
  std::ostringstream os;
  os << "{\"threshold\":" << FormatDouble(threshold)
     << ",\"num_regressions\":" << num_regressions << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) os << ",";
    const ReplayFinding& f = findings[i];
    os << "{\"fingerprint\":\"" << FormatFingerprint(f.id.fingerprint)
       << "\",\"mechanism\":\"" << MechanismKindName(f.id.mechanism)
       << "\",\"strategy\":\"" << PlanStrategyName(f.id.strategy)
       << "\",\"baseline_wall_nanos\":" << FormatDouble(f.baseline_wall_nanos)
       << ",\"current_wall_nanos\":" << FormatDouble(f.current_wall_nanos)
       << ",\"baseline_nodes\":" << FormatDouble(f.baseline_nodes)
       << ",\"current_nodes\":" << FormatDouble(f.current_nodes)
       << ",\"baseline_observations\":" << f.baseline_observations
       << ",\"current_observations\":" << f.current_observations
       << ",\"ratio\":" << FormatDouble(f.ratio)
       << ",\"regressed\":" << (f.regressed ? "true" : "false") << "}";
  }
  os << "],\"only_in_baseline\":[";
  for (size_t i = 0; i < only_in_baseline.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << FormatFingerprint(only_in_baseline[i]) << "\"";
  }
  os << "],\"only_in_current\":[";
  for (size_t i = 0; i < only_in_current.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << FormatFingerprint(only_in_current[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

}  // namespace ldp
