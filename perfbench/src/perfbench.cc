// End-to-end benchmark program for ldpmda.
//
//   perfbench --workload {ingest-live,adhoc,dashboard} --seed N --seconds S
//             --trace {0,1} --out RAW.json --work_dir DIR
//
// One client thread runs a closed loop (the next request is sent only after
// the previous one returned) against a server or engine configured with one
// worker per hardware thread. Inputs (tables, queries, fault patterns) are
// generated from --seed and are never timed; neither is the correctness
// reference work. The raw measurements -- latency samples, counter deltas,
// trace spans, correctness verdicts -- are written to --out as one JSON
// object; perfbench/run.py turns them into the named metrics.
//
// With --trace 1, even-numbered operations run untraced and odd-numbered
// ones traced, so the same run yields per-layer numbers and the tracing
// overhead. Spans come only from this file: one around each call into a
// public layer function, plus the QueryProfile stages of traced queries.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/generator.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "engine/transport.h"
#include "fo/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "storage/fs.h"
#include "storage/wal.h"

namespace {

using ldp::AnalyticsEngine;
using ldp::CollectionServer;
using ldp::CollectionSpec;
using ldp::EngineOptions;
using ldp::GlobalMetrics;
using ldp::Interval;
using ldp::MechanismKind;
using ldp::MechanismParams;
using ldp::QueryProfile;
using ldp::Result;
using ldp::Rng;
using ldp::Status;
using ldp::Table;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kUsers = 1ull << 20;
constexpr double kEpsilon = 2.0;
/// Untimed repetitions of the set-up; setup_s is their median.
constexpr int kSetupReps = 5;
/// Closed loops run past the deadline until this many operations completed,
/// so a p99 always has at least ten samples beyond it.
constexpr uint64_t kMinOps = 1000;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double MillisSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Peak resident set size of this process so far, in KiB.
long PeakRssKib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder, written out once at exit. Disabled, every call
/// is a branch on `enabled_` and nothing is recorded.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t items;  ///< calls covered by a span around a loop of calls
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// Opens a span; returns its id, or -1 when tracing is off.
  int64_t Begin(const char* name, int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, Now(), 0, 1});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id, uint64_t items = 1) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    spans_[id].items = items;
  }

  /// Adds the non-empty QueryProfile stages as children of `parent`. The
  /// profile holds durations, not positions, so the stage spans are laid
  /// end to end from the parent's start; their durations are exact.
  void AddStages(int64_t parent, const QueryProfile& profile) {
    if (parent < 0) return;
    uint64_t t = spans_[parent].start_ns;
    for (int s = 0; s < QueryProfile::kNumStages; ++s) {
      const auto& stage = profile.stages[s];
      if (stage.calls == 0) continue;
      const auto st = static_cast<QueryProfile::Stage>(s);
      spans_.push_back({QueryProfile::StageName(st), parent,
                        spans_[parent].request, t, t + stage.wall_nanos,
                        stage.calls});
      t += stage.wall_nanos;
    }
  }

  /// One tab-separated line per span: id parent request name start end items.
  bool WriteTsv(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.items
          << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counters read around each traced operation. Reading a Counter sums its
/// shards; no registry lock is taken.
constexpr const char* kProbedCounters[] = {
    "estimate.nodes",         "estimate.report_values",
    "estimate_cache.hits",    "estimate_cache.misses",
    "estimate_cache.epoch_drops", "fo_cache.hits",
    "fo_cache.builds",        "fo_cache.stale_rebuilds",
    "exec.chunks",            "plan.estimate_calls",
    "plan.batch_dedup_hits",  "plan_cache.hits",
    "plan_cache.misses",      "plan.rewrites",
    "storage.fsyncs",         "storage.wal_bytes",
    "storage.snapshot_writes"};
constexpr size_t kNumProbed = std::size(kProbedCounters);

class CounterProbe {
 public:
  using Values = std::array<uint64_t, kNumProbed>;

  CounterProbe() {
    for (size_t i = 0; i < kNumProbed; ++i) {
      handles_[i] = GlobalMetrics().counter(kProbedCounters[i]);
    }
  }
  Values Read() const {
    Values v{};
    for (size_t i = 0; i < kNumProbed; ++i) v[i] = handles_[i]->value();
    return v;
  }
  /// Adds (after - before) into `sums`.
  static void Accumulate(const Values& before, const Values& after,
                         Values* sums) {
    for (size_t i = 0; i < kNumProbed; ++i) {
      (*sums)[i] += after[i] - before[i];
    }
  }

 private:
  std::array<ldp::Counter*, kNumProbed> handles_{};
};

// ---------------------------------------------------------------------------
// Raw output

/// Minimal JSON writer for the raw measurement file.
class JsonOut {
 public:
  void Key(const std::string& key) {
    Sep();
    os_ << '"' << key << "\":";
    first_ = true;
    after_key_ = true;
  }
  void Begin(char c) {
    Sep();
    os_ << c;
    first_ = true;
  }
  void End(char c) {
    os_ << c;
    first_ = false;
  }
  void Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
  }
  void Str(const std::string& s) {
    Sep();
    os_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    os_ << '"';
  }
  void Bool(bool b) {
    Sep();
    os_ << (b ? "true" : "false");
  }
  void NumArray(const std::vector<double>& v) {
    Begin('[');
    for (double x : v) Num(x);
    End(']');
  }
  std::string str() const { return os_.str(); }

 private:
  void Sep() {
    if (after_key_) {
      after_key_ = false;
      first_ = false;
      return;
    }
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
  bool after_key_ = false;
};

/// Everything one run measured.
struct Raw {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  std::vector<double> op_ms;         ///< untraced operations
  std::vector<double> op_end_s;      ///< end of each untraced operation
  std::vector<double> op_units;      ///< work each untraced operation did
  std::vector<double> traced_op_ms;  ///< traced operations (--trace 1)
  std::vector<double> poll_ms;       ///< ingest-live poll rounds
  std::vector<double> recovery_s;    ///< ingest-live reopen per pass
  long peak_rss_kib = 0;
  /// (estimate, exact, normalizer) per sampled COUNT/SUM query.
  std::vector<std::array<double, 3>> accuracy;
  uint64_t traced_ops = 0;
  CounterProbe::Values traced_counters{};
  /// Counter deltas around ExecuteBatch calls of traced rounds.
  CounterProbe::Values batch_counters{};
  std::map<std::string, double> scalars;
  std::map<std::string, uint64_t> window_counters;
  std::vector<std::pair<uint64_t, uint64_t>> queue_wait_buckets;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Counts one attempted operation; a non-OK status is a failure.
  void Attempt(const Status& status, const char* what) {
    ++attempted;
    if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
  }
};

/// Counter and histogram deltas over the measured window.
class Window {
 public:
  Window() : before_(GlobalMetrics().TakeSnapshot()) {}
  void Close(Raw* raw) const {
    const auto after = GlobalMetrics().TakeSnapshot();
    for (const auto& [name, value] : after.counters) {
      const auto it = before_.counters.find(name);
      raw->window_counters[name] =
          value - (it == before_.counters.end() ? 0 : it->second);
    }
    std::map<uint64_t, uint64_t> buckets;
    const auto hist_after = after.histograms.find("exec.queue_wait");
    if (hist_after != after.histograms.end()) {
      for (const auto& [upper, n] : hist_after->second.nonzero) {
        buckets[upper] += n;
      }
    }
    const auto hist_before = before_.histograms.find("exec.queue_wait");
    if (hist_before != before_.histograms.end()) {
      for (const auto& [upper, n] : hist_before->second.nonzero) {
        buckets[upper] -= n;
      }
    }
    for (const auto& [upper, n] : buckets) {
      if (n > 0) raw->queue_wait_buckets.emplace_back(upper, n);
    }
  }

 private:
  ldp::MetricsRegistry::Snapshot before_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string work_dir;
};

struct Run {
  Args args;
  int threads = HardwareThreads();
  Tracer tracer;
  CounterProbe probe;
  Raw raw;
  Clock::time_point deadline;

  explicit Run(const Args& a)
      : args(a), tracer(a.trace, Clock::now()) {}

  bool TracedOp(uint64_t i) const { return args.trace && (i % 2 == 1); }
  bool LoopDone(uint64_t ops) const {
    return ops >= kMinOps && Clock::now() >= deadline;
  }
  void StartDeadline() {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(args.seconds));
  }
  /// `end_s` is when the operation ended on the measured loop's clock;
  /// `units` is the work it completed (frames, queries or rounds).
  void RecordOp(bool traced, double ms, double end_s, double units) {
    if (traced) {
      raw.traced_op_ms.push_back(ms);
      return;
    }
    raw.op_ms.push_back(ms);
    raw.op_end_s.push_back(end_s);
    raw.op_units.push_back(units);
  }
};

// ---------------------------------------------------------------------------
// Layer replays shared by the workloads (traced runs only)

/// LdpClient::EncodeUser, UnframeReport + LdpReport::Deserialize and
/// Mechanism::AddReport replayed over `users` rows of `table`, each as one
/// span around the loop of calls.
Status ReplayClientLayers(Run& run, const Table& table, uint64_t users,
                          const std::vector<std::string>* channel_frames) {
  MechanismParams params;
  params.epsilon = kEpsilon;
  const CollectionSpec spec =
      CollectionSpec::FromSchema(table.schema(), MechanismKind::kHio, params);
  LDP_ASSIGN_OR_RETURN(const ldp::LdpClient client,
                       ldp::LdpClient::Create(spec));
  const auto& dims = table.schema().sensitive_dims();
  std::vector<uint32_t> values(dims.size());
  std::vector<std::string> frames;
  frames.reserve(users);
  Rng rng(run.args.seed ^ 0x5eedc0de);
  const int64_t encode = run.tracer.Begin("EncodeUser", -1, 0);
  for (uint64_t u = 0; u < users; ++u) {
    for (size_t i = 0; i < dims.size(); ++i) {
      values[i] = table.DimValue(dims[i], u);
    }
    LDP_ASSIGN_OR_RETURN(std::string frame, client.EncodeUser(values, rng));
    frames.push_back(std::move(frame));
  }
  run.tracer.End(encode, users);

  const std::vector<std::string>& decode_input =
      channel_frames != nullptr ? *channel_frames : frames;
  uint64_t decoded = 0;
  const int64_t decode = run.tracer.Begin("DecodeFrame", -1, 0);
  for (const std::string& frame : decode_input) {
    const auto payload = ldp::UnframeReport(frame);
    if (!payload.ok()) continue;
    decoded += ldp::LdpReport::Deserialize(payload.value()).ok() ? 1 : 0;
  }
  run.tracer.End(decode, decode_input.size());
  if (decoded == 0) return Status::Internal("no frame decoded");

  std::vector<ldp::LdpReport> reports;
  reports.reserve(frames.size());
  for (const std::string& frame : frames) {
    LDP_ASSIGN_OR_RETURN(const std::string_view payload,
                         ldp::UnframeReport(frame));
    LDP_ASSIGN_OR_RETURN(ldp::LdpReport report,
                         ldp::LdpReport::Deserialize(payload));
    reports.push_back(std::move(report));
  }
  LDP_ASSIGN_OR_RETURN(const ldp::Schema schema, spec.ToSchema());
  LDP_ASSIGN_OR_RETURN(auto mechanism,
                       ldp::CreateMechanism(MechanismKind::kHio, schema,
                                            params));
  const int64_t add = run.tracer.Begin("AddReport", -1, 0);
  for (uint64_t u = 0; u < reports.size(); ++u) {
    LDP_RETURN_NOT_OK(mechanism->AddReport(reports[u], u));
  }
  run.tracer.End(add, reports.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ingest-live

struct PollBox {
  std::vector<Interval> ranges;
};

/// The fixed live-count polls: 4 boxes over (age, income, marital, sex).
std::vector<PollBox> MakePolls(uint64_t seed, uint64_t m) {
  Rng rng(seed ^ 0x9011);
  auto range = [&](uint64_t domain) {
    uint64_t a = rng.UniformInt(domain), b = rng.UniformInt(domain);
    if (a > b) std::swap(a, b);
    return Interval{a, b};
  };
  const Interval all_m{0, m - 1}, all_marital{0, 5}, all_sex{0, 1};
  std::vector<PollBox> polls;
  polls.push_back({{range(m), all_m, all_marital, all_sex}});
  polls.push_back({{all_m, range(m), all_marital, Interval{1, 1}}});
  polls.push_back({{range(m), range(m), all_marital, all_sex}});
  const uint64_t marital = rng.UniformInt(6);
  polls.push_back({{all_m, all_m, Interval{marital, marital}, all_sex}});
  return polls;
}

Status PollAll(const CollectionServer& server, const std::vector<PollBox>& polls,
               const ldp::WeightVector& ones, std::vector<double>* out,
               Run* run, int64_t parent) {
  out->clear();
  for (const PollBox& poll : polls) {
    const int64_t span =
        run != nullptr ? run->tracer.Begin("EstimateBox", parent, 0) : -1;
    auto estimate = server.EstimateBox(poll.ranges, ones);
    if (run != nullptr) run->tracer.End(span);
    LDP_RETURN_NOT_OK(estimate.status());
    out->push_back(estimate.value());
  }
  return Status::OK();
}

bool SameStats(const ldp::IngestStats& a, const ldp::IngestStats& b) {
  return a.accepted == b.accepted && a.duplicate == b.duplicate &&
         a.corrupt == b.corrupt && a.rejected == b.rejected;
}

bool SameBitsAll(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

Status RunIngestLive(Run& run) {
  constexpr uint64_t kM = 54;
  constexpr size_t kBatchFrames = 1024;
  constexpr uint64_t kPollEvery = 32;  // batches between poll rounds
  const Table table = ldp::MakeIpums4D(kUsers, kM, run.args.seed);
  MechanismParams params;
  params.epsilon = kEpsilon;
  const CollectionSpec spec =
      CollectionSpec::FromSchema(table.schema(), MechanismKind::kHio, params);
  LDP_ASSIGN_OR_RETURN(const ldp::LdpClient client,
                       ldp::LdpClient::Create(spec));
  ldp::StorageOptions storage;
  storage.sync = ldp::WalSyncPolicy::kBatch;
  storage.sync_every_appends = 16;
  storage.snapshot_every_frames = 1u << 18;
  namespace fs = std::filesystem;
  const fs::path work(run.args.work_dir);
  fs::remove_all(work);
  fs::create_directories(work);

  // Set-up: every client encodes its report, and an empty durable server
  // opens. Repeated; the frames of the last repetition are used.
  const auto& dims = table.schema().sensitive_dims();
  std::vector<uint32_t> values(dims.size());
  std::vector<std::string> frames;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    frames.clear();
    frames.reserve(kUsers);
    Rng rng(run.args.seed);
    const auto t0 = Clock::now();
    for (uint64_t u = 0; u < kUsers; ++u) {
      for (size_t i = 0; i < dims.size(); ++i) {
        values[i] = table.DimValue(dims[i], u);
      }
      LDP_ASSIGN_OR_RETURN(std::string frame, client.EncodeUser(values, rng));
      frames.push_back(std::move(frame));
    }
    const double encode_s = SecondsSince(t0);
    storage.dir = (work / ("setup-" + std::to_string(rep))).string();
    const auto t1 = Clock::now();
    auto server = CollectionServer::CreateDurable(spec, storage, run.threads);
    const double open_s = SecondsSince(t1);
    LDP_RETURN_NOT_OK(server.status());
    run.raw.setup_s.push_back(encode_s + open_s);
    run.raw.create_ms.push_back(open_s * 1e3);
  }

  // The network: ~1% duplicates, ~0.5% corrupt frames, ~1% reordered.
  ldp::FaultRates rates;
  rates.dup = 0.01;
  rates.corrupt = 0.005;
  rates.reorder = 0.01;
  LDP_ASSIGN_OR_RETURN(ldp::FaultyChannel channel,
                       ldp::FaultyChannel::Create(rates, run.args.seed));
  for (uint64_t u = 0; u < kUsers; ++u) channel.Send(u, frames[u]);
  const std::vector<ldp::FaultyChannel::Delivery> deliveries = channel.Drain();
  std::vector<std::vector<CollectionServer::ReportFrame>> batches;
  uint64_t frame_bytes = 0;
  for (size_t i = 0; i < deliveries.size(); i += kBatchFrames) {
    auto& batch = batches.emplace_back();
    for (size_t j = i; j < std::min(i + kBatchFrames, deliveries.size()); ++j) {
      batch.push_back({deliveries[j].bytes, deliveries[j].user});
      frame_bytes += deliveries[j].bytes.size();
    }
  }
  const std::vector<PollBox> polls = MakePolls(run.args.seed, kM);
  const ldp::WeightVector ones = ldp::WeightVector::Ones(kUsers);

  // Measured loop: whole collection passes, each into a fresh durable
  // server, closed by a reopen that measures recovery.
  ldp::IngestStats live_stats;
  std::vector<double> live_polls, poll_values;
  uint64_t ops = 0, passes = 0;
  double loop_s = 0;  // the loop clock: pass time, without reopens
  std::vector<double> stall_ms;  // traced batches during a snapshot write
  const Window window;
  run.StartDeadline();
  // A traced run alternates untraced and traced passes, so it makes at
  // least two.
  while (passes < (run.args.trace ? 2u : 1u) || !run.LoopDone(ops)) {
    storage.dir = (work / ("pass-" + std::to_string(passes))).string();
    const bool traced = run.TracedOp(passes);
    const int64_t pass_span =
        traced ? run.tracer.Begin("pass", -1, passes) : -1;
    // Closing a server (its destructor) is a span of its own.
    auto close = [&](std::optional<CollectionServer>& server) {
      const int64_t span =
          traced ? run.tracer.Begin("~CollectionServer", pass_span, passes)
                 : -1;
      server.reset();
      run.tracer.End(span);
    };
    {
      const int64_t open_span =
          traced ? run.tracer.Begin("CreateDurable", pass_span, passes) : -1;
      auto opened = CollectionServer::CreateDurable(spec, storage, run.threads);
      run.tracer.End(open_span);
      LDP_RETURN_NOT_OK(opened.status());
      std::optional<CollectionServer> live(std::move(opened).value());
      CollectionServer& server = *live;
      server.EnableEstimateCache(EngineOptions().estimate_cache_bytes);
      const auto pass_t0 = Clock::now();
      for (size_t b = 0; b < batches.size(); ++b, ++ops) {
        CounterProbe::Values before{};
        if (traced) before = run.probe.Read();
        const int64_t span =
            traced ? run.tracer.Begin("IngestBatch", pass_span, passes) : -1;
        const auto t0 = Clock::now();
        const Status status = server.IngestBatch(batches[b]);
        const double ms = MillisSince(t0);
        run.tracer.End(span, batches[b].size());
        run.RecordOp(traced, ms, loop_s + SecondsSince(pass_t0),
                     static_cast<double>(batches[b].size()));
        run.raw.Attempt(status, "IngestBatch");
        // storage.snapshot_writes is the last probed counter.
        if (traced &&
            run.probe.Read()[kNumProbed - 1] != before[kNumProbed - 1]) {
          stall_ms.push_back(ms);
        }
        if ((b + 1) % kPollEvery == 0) {
          const int64_t poll_span =
              traced ? run.tracer.Begin("poll", pass_span, passes) : -1;
          const auto p0 = Clock::now();
          const Status poll_status =
              PollAll(server, polls, ones, &poll_values,
                      traced ? &run : nullptr, poll_span);
          run.raw.poll_ms.push_back(MillisSince(p0));
          run.tracer.End(poll_span, polls.size());
          run.raw.Attempt(poll_status, "EstimateBox poll");
        }
        if (traced) {
          CounterProbe::Accumulate(before, run.probe.Read(),
                                   &run.raw.traced_counters);
          ++run.raw.traced_ops;
        }
      }
      loop_s += SecondsSince(pass_t0);
      live_stats = server.ingest_stats();
      // The benchmark's own check reads run in a "check" span.
      const int64_t check_span =
          traced ? run.tracer.Begin("check", pass_span, passes) : -1;
      const Status final_polls =
          PollAll(server, polls, ones, &live_polls, nullptr, -1);
      run.tracer.End(check_span);
      LDP_RETURN_NOT_OK(final_polls);
      const int64_t flush_span =
          traced ? run.tracer.Begin("Flush", pass_span, passes) : -1;
      const Status flushed = server.Flush();
      run.tracer.End(flush_span);
      LDP_RETURN_NOT_OK(flushed);
      close(live);
    }
    // Recovery: the server is closed; reopen the directory.
    const int64_t reopen_span =
        traced ? run.tracer.Begin("CreateDurable.recover", pass_span, passes)
               : -1;
    const auto r0 = Clock::now();
    auto reopen = CollectionServer::CreateDurable(spec, storage, run.threads);
    run.raw.recovery_s.push_back(SecondsSince(r0));
    run.tracer.End(reopen_span);
    run.raw.Attempt(reopen.status(), "CreateDurable reopen");
    if (reopen.ok()) {
      std::optional<CollectionServer> reopened(std::move(reopen).value());
      std::vector<double> recovered_polls;
      const int64_t check_span =
          traced ? run.tracer.Begin("check", pass_span, passes) : -1;
      const Status st =
          PollAll(*reopened, polls, ones, &recovered_polls, nullptr, -1);
      run.tracer.End(check_span);
      if (!st.ok() || !SameStats(reopened->ingest_stats(), live_stats) ||
          !SameBitsAll(recovered_polls, live_polls)) {
        run.raw.Fail("recovered server differs from the live server");
      }
      const ldp::RecoveryInfo* info = reopened->recovery_info();
      run.raw.scalars["recovery_snapshot_entries"] =
          static_cast<double>(info->snapshot_entries);
      run.raw.scalars["recovery_replayed_frames"] =
          static_cast<double>(info->replayed_frames);
      close(reopened);
    }
    const int64_t cleanup_span =
        traced ? run.tracer.Begin("remove_dir", pass_span, passes) : -1;
    fs::remove_all(storage.dir);
    run.tracer.End(cleanup_span);
    run.tracer.End(pass_span, batches.size());
    ++passes;
  }
  window.Close(&run.raw);
  run.raw.peak_rss_kib = PeakRssKib();
  run.raw.scalars["passes"] = static_cast<double>(passes);
  run.raw.scalars["batches_per_pass"] = static_cast<double>(batches.size());
  run.raw.scalars["frames_per_pass"] = static_cast<double>(deliveries.size());
  run.raw.scalars["frame_bytes_per_pass"] = static_cast<double>(frame_bytes);
  run.raw.scalars["ingest_accepted"] = static_cast<double>(live_stats.accepted);
  run.raw.scalars["ingest_duplicate"] =
      static_cast<double>(live_stats.duplicate);
  run.raw.scalars["ingest_quarantined"] =
      static_cast<double>(live_stats.quarantined());

  if (run.args.trace) {
    // Layer replays over the same frames and batches.
    std::vector<std::string> channel_frames;
    channel_frames.reserve(deliveries.size());
    for (const auto& d : deliveries) channel_frames.push_back(d.bytes);
    LDP_RETURN_NOT_OK(ReplayClientLayers(run, table, kUsers, &channel_frames));
    {
      LDP_ASSIGN_OR_RETURN(CollectionServer mem,
                           CollectionServer::Create(spec, run.threads));
      const int64_t span = run.tracer.Begin("IngestBatch.memory", -1, 0);
      for (const auto& batch : batches) {
        LDP_RETURN_NOT_OK(mem.IngestBatch(batch));
      }
      run.tracer.End(span, batches.size());
    }
    {
      const std::string wal_dir = (work / "wal-replay").string();
      ldp::WalOptions wal_options;
      wal_options.sync = storage.sync;
      wal_options.sync_every_appends = storage.sync_every_appends;
      LDP_ASSIGN_OR_RETURN(auto wal, ldp::Wal::Open(&ldp::PosixFs(), wal_dir,
                                                    wal_options, nullptr));
      std::vector<ldp::WalFrameRef> refs;
      const int64_t span = run.tracer.Begin("Wal::Append", -1, 0);
      for (const auto& batch : batches) {
        refs.clear();
        for (const auto& f : batch) refs.push_back({f.user, f.bytes});
        LDP_RETURN_NOT_OK(wal->Append(refs));
      }
      run.tracer.End(span, deliveries.size());
      wal.reset();
      fs::remove_all(wal_dir);
    }
    double stall_sum = 0;
    for (double ms : stall_ms) stall_sum += ms;
    run.raw.scalars["snapshot_stall_ms"] =
        stall_ms.empty() ? 0 : stall_sum / stall_ms.size();
  }

  // Reference: the serial Ingest path fed the same frames in the same order.
  LDP_ASSIGN_OR_RETURN(CollectionServer reference,
                       CollectionServer::Create(spec, 1));
  for (const auto& d : deliveries) (void)reference.Ingest(d.bytes, d.user);
  std::vector<double> reference_polls;
  LDP_RETURN_NOT_OK(
      PollAll(reference, polls, ones, &reference_polls, nullptr, -1));
  if (!SameStats(reference.ingest_stats(), live_stats)) {
    run.raw.Fail("IngestStats differ from the serial Ingest reference");
  }
  if (!SameBitsAll(reference_polls, live_polls)) {
    run.raw.Fail("poll estimates differ from the serial Ingest reference");
  }
  fs::remove_all(work);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query workloads

EngineOptions QueryEngineOptions(uint64_t seed, int threads) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = kEpsilon;
  options.params.hash_pool_size = 0;
  options.seed = seed;
  options.num_threads = threads;
  return options;
}

/// AnalyticsEngine::Create repeated kSetupReps times; returns the last.
Result<std::unique_ptr<AnalyticsEngine>> SetUpEngine(
    Run& run, const Table& table, const EngineOptions& options) {
  std::unique_ptr<AnalyticsEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const int64_t span = run.tracer.Begin("Create", -1, 0);
    const auto t0 = Clock::now();
    auto created = AnalyticsEngine::Create(table, options);
    const double s = SecondsSince(t0);
    run.tracer.End(span);
    LDP_RETURN_NOT_OK(created.status());
    engine = std::move(created).value();
    run.raw.setup_s.push_back(s);
    run.raw.create_ms.push_back(s * 1e3);
  }
  return engine;
}

/// The reference engine of the bit-identity contract: one thread, every
/// cache off.
Result<std::unique_ptr<AnalyticsEngine>> ReferenceEngine(
    const Table& table, uint64_t seed) {
  EngineOptions options = QueryEngineOptions(seed, 1);
  options.enable_estimate_cache = false;
  options.enable_plan_cache = false;
  return AnalyticsEngine::Create(table, options);
}

/// Compares sampled answers against the reference engine bit for bit.
void CheckAgainstReference(
    Run& run, const AnalyticsEngine& reference,
    const std::vector<std::pair<std::string, double>>& sample) {
  std::unordered_map<std::string, double> memo;
  for (const auto& [sql, answer] : sample) {
    auto it = memo.find(sql);
    if (it == memo.end()) {
      const auto expected = reference.ExecuteSql(sql);
      if (!expected.ok()) {
        run.raw.Fail("reference failed on " + sql);
        continue;
      }
      it = memo.emplace(sql, expected.value()).first;
    }
    if (!SameBits(it->second, answer)) {
      run.raw.Fail("answer differs from the 1-thread caches-off engine: " +
                   sql);
    }
  }
  run.raw.scalars["reference_checked"] = static_cast<double>(sample.size());
}

/// Random ad-hoc queries over dim1/dim2 (domain 1024 each): 1-D and 2-D
/// ranges, COUNT/SUM/AVG, and some OR predicates.
class AdhocQueries {
 public:
  explicit AdhocQueries(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    const uint64_t agg = rng_.UniformInt(10);
    std::string sql = agg < 4   ? "SELECT COUNT(*)"
                      : agg < 7 ? "SELECT SUM(weekly_work_hour)"
                                : "SELECT AVG(weekly_work_hour)";
    sql += " FROM t WHERE ";
    const uint64_t shape = rng_.UniformInt(10);
    if (shape < 3) {
      sql += Range(rng_.UniformInt(2) == 0 ? "dim1" : "dim2");
    } else if (shape < 8) {
      sql += Range("dim1") + " AND " + Range("dim2");
    } else {
      sql += "(" + Range("dim1") + " AND " + Range("dim2") + ") OR " +
             Range(rng_.UniformInt(2) == 0 ? "dim1" : "dim2");
    }
    return sql;
  }

 private:
  std::string Range(const char* dim) {
    uint64_t a = rng_.UniformInt(1024), b = rng_.UniformInt(1024);
    if (a > b) std::swap(a, b);
    return std::string(dim) + " BETWEEN " + std::to_string(a) + " AND " +
           std::to_string(b);
  }
  Rng rng_;
};

Status RunAdhoc(Run& run) {
  constexpr size_t kAccuracySample = 300;
  constexpr size_t kReferenceEvery = 20;
  constexpr uint64_t kMaxWarmQueries = 20000;
  const Table table =
      ldp::MakeIpumsNumeric(kUsers, {1024, 1024}, run.args.seed);
  const EngineOptions options = QueryEngineOptions(run.args.seed, run.threads);
  LDP_ASSIGN_OR_RETURN(auto engine, SetUpEngine(run, table, options));

  // Warm-up from a separate query stream until the estimate cache is full
  // (its first eviction), so the measured loop sees the cache's steady
  // state rather than its fill.
  const ldp::EstimateCache& cache = *engine->mechanism().estimate_cache();
  AdhocQueries warm(run.args.seed ^ 0xa11ce);
  uint64_t warm_queries = 0;
  for (; warm_queries < kMaxWarmQueries && cache.stats().evictions == 0;
       ++warm_queries) {
    (void)engine->ExecuteSql(warm.Next());
  }
  run.raw.scalars["warmup_queries"] = static_cast<double>(warm_queries);

  AdhocQueries gen(run.args.seed);
  std::vector<std::pair<std::string, double>> answers;
  uint64_t ops = 0;
  const Window window;
  run.StartDeadline();
  const auto loop_t0 = Clock::now();
  for (; !run.LoopDone(ops); ++ops) {
    const std::string sql = gen.Next();
    const bool traced = run.TracedOp(ops);
    QueryProfile profile;
    CounterProbe::Values before{};
    if (traced) before = run.probe.Read();
    const int64_t span = traced ? run.tracer.Begin("ExecuteSql", -1, ops) : -1;
    const auto t0 = Clock::now();
    const auto answer = engine->ExecuteSql(sql, traced ? &profile : nullptr);
    const double ms = MillisSince(t0);
    run.tracer.End(span);
    run.RecordOp(traced, ms, SecondsSince(loop_t0), 1);
    run.raw.Attempt(answer.status(), "ExecuteSql");
    if (traced) {
      run.tracer.AddStages(span, profile);
      CounterProbe::Accumulate(before, run.probe.Read(),
                               &run.raw.traced_counters);
      ++run.raw.traced_ops;
      run.raw.scalars["ie_terms"] += static_cast<double>(profile.ie_terms);
    }
    if (answers.size() < kMinOps && answer.ok()) {
      answers.emplace_back(sql, answer.value());
    }
  }
  window.Close(&run.raw);
  run.raw.peak_rss_kib = PeakRssKib();

  if (run.args.trace) {
    LDP_RETURN_NOT_OK(ReplayClientLayers(run, table, kUsers / 4, nullptr));
  }

  // Accuracy: MNAE of the first COUNT/SUM queries against exact answers.
  double sum_norm = -1;
  for (size_t i = 0; i < std::min(kAccuracySample, answers.size()); ++i) {
    LDP_ASSIGN_OR_RETURN(const ldp::Query query,
                         ldp::ParseQuery(table.schema(), answers[i].first));
    const auto kind = query.aggregate.kind;
    if (kind != ldp::AggregateKind::kCount && kind != ldp::AggregateKind::kSum) {
      continue;
    }
    LDP_ASSIGN_OR_RETURN(const double exact, engine->ExecuteExact(query));
    double norm = static_cast<double>(kUsers);
    if (kind == ldp::AggregateKind::kSum) {
      if (sum_norm < 0) sum_norm = engine->AbsWeightTotal(query);
      norm = sum_norm;
    }
    run.raw.accuracy.push_back({answers[i].second, exact, norm});
  }

  engine.reset();
  LDP_ASSIGN_OR_RETURN(const auto reference,
                       ReferenceEngine(table, run.args.seed));
  std::vector<std::pair<std::string, double>> sample;
  for (size_t i = 0; i < answers.size(); i += kReferenceEvery) {
    sample.push_back(answers[i]);
  }
  CheckAgainstReference(run, *reference, sample);
  return Status::OK();
}

/// A fixed set of dashboard tiles over MakeIpums4D; each round every tile's
/// range endpoints drift by one of four offsets.
class Dashboard {
 public:
  static constexpr int kTemplates = 48;
  static constexpr uint64_t kDrift = 4;

  Dashboard(uint64_t seed, uint64_t m) : m_(m) {
    Rng rng(seed ^ 0xdab);
    for (int t = 0; t < kTemplates; ++t) {
      Tile tile;
      // Every (aggregate, shape) pair appears equally often; only the
      // ranges and values come from the seed.
      const int agg = t % 3;
      tile.select = agg == 0   ? "SELECT COUNT(*)"
                    : agg == 1 ? "SELECT SUM(weekly_work_hour)"
                               : "SELECT AVG(weekly_work_hour)";
      tile.shape = (t / 3) % 4;
      tile.lo = rng.UniformInt(m - kDrift - 8);
      tile.width = 4 + rng.UniformInt(m - kDrift - tile.lo - 4);
      tile.lo2 = rng.UniformInt(m - kDrift - 8);
      tile.width2 = 4 + rng.UniformInt(m - kDrift - tile.lo2 - 4);
      tile.marital = rng.UniformInt(6);
      tile.sex = rng.UniformInt(2);
      tiles_.push_back(tile);
    }
  }

  /// The SQL of every tile for one round.
  std::vector<std::string> Round(Rng& drift_rng) const {
    std::vector<std::string> sql;
    for (const Tile& t : tiles_) {
      const uint64_t d = drift_rng.UniformInt(kDrift);
      const std::string age = "age BETWEEN " + std::to_string(t.lo + d) +
                              " AND " + std::to_string(t.lo + d + t.width);
      const std::string income = "income BETWEEN " + std::to_string(t.lo2 + d) +
                                 " AND " +
                                 std::to_string(t.lo2 + d + t.width2);
      std::string where;
      switch (t.shape) {
        case 0:
          where = age;
          break;
        case 1:
          where = age + " AND sex = " + std::to_string(t.sex);
          break;
        case 2:
          where = age + " AND " + income;
          break;
        default:
          where = income + " AND marital_status = " + std::to_string(t.marital);
          break;
      }
      sql.push_back(t.select + " FROM t WHERE " + where);
    }
    return sql;
  }

 private:
  struct Tile {
    std::string select;
    int shape = 0;
    uint64_t lo = 0, width = 0, lo2 = 0, width2 = 0, marital = 0, sex = 0;
  };
  uint64_t m_;
  std::vector<Tile> tiles_;
};

Status RunDashboard(Run& run) {
  constexpr uint64_t kM = 54;
  constexpr uint64_t kReferenceEvery = 100;  // rounds
  const Table table = ldp::MakeIpums4D(kUsers, kM, run.args.seed);
  const EngineOptions options = QueryEngineOptions(run.args.seed, run.threads);
  LDP_ASSIGN_OR_RETURN(auto engine, SetUpEngine(run, table, options));
  const Dashboard dashboard(run.args.seed, kM);

  std::vector<ldp::Query> queries;
  std::vector<double> batch_out(Dashboard::kTemplates);
  std::vector<std::pair<std::string, double>> sample;
  Rng warm_rng(run.args.seed ^ 0x3a3a);
  for (int i = 0; i < 32; ++i) {
    for (const std::string& sql : dashboard.Round(warm_rng)) {
      (void)engine->ExecuteSql(sql);
    }
  }

  Rng drift_rng(run.args.seed);
  uint64_t ops = 0;
  const Window window;
  run.StartDeadline();
  const auto loop_t0 = Clock::now();
  for (; !run.LoopDone(ops); ++ops) {
    const std::vector<std::string> sql = dashboard.Round(drift_rng);
    const bool traced = run.TracedOp(ops);
    CounterProbe::Values before{};
    if (traced) before = run.probe.Read();
    const int64_t round = traced ? run.tracer.Begin("round", -1, ops) : -1;
    const auto t0 = Clock::now();
    // Pass 1: the tiles as one ExecuteBatch.
    queries.clear();
    bool parsed_all = true;
    for (const std::string& s : sql) {
      const int64_t span = traced ? run.tracer.Begin("parse", round, ops) : -1;
      auto parsed = ldp::ParseQuery(table.schema(), s);
      run.tracer.End(span);
      run.raw.Attempt(parsed.status(), "ParseQuery");
      if (!parsed.ok()) {
        parsed_all = false;
        break;
      }
      queries.push_back(std::move(parsed).value());
    }
    if (parsed_all) {
      QueryProfile profile;
      CounterProbe::Values batch_before{};
      if (traced) batch_before = run.probe.Read();
      const int64_t span =
          traced ? run.tracer.Begin("ExecuteBatch", round, ops) : -1;
      const Status status = engine->ExecuteBatch(
          queries, batch_out, traced ? &profile : nullptr);
      run.tracer.End(span, queries.size());
      if (traced) {
        run.tracer.AddStages(span, profile);
        CounterProbe::Accumulate(batch_before, run.probe.Read(),
                                 &run.raw.batch_counters);
      }
      run.raw.Attempt(status, "ExecuteBatch");
    }
    // Pass 2: the same tiles as sequential SQL; the answers must match the
    // batch bit for bit.
    for (size_t i = 0; i < sql.size(); ++i) {
      QueryProfile profile;
      const int64_t span =
          traced ? run.tracer.Begin("ExecuteSql", round, ops) : -1;
      const auto answer =
          engine->ExecuteSql(sql[i], traced ? &profile : nullptr);
      run.tracer.End(span);
      if (traced) {
        run.tracer.AddStages(span, profile);
        run.raw.scalars["ie_terms"] += static_cast<double>(profile.ie_terms);
      }
      run.raw.Attempt(answer.status(), "ExecuteSql");
      if (answer.ok() && parsed_all && !SameBits(answer.value(), batch_out[i])) {
        run.raw.Fail("ExecuteSql differs from ExecuteBatch: " + sql[i]);
      }
      if (answer.ok() && ops % kReferenceEvery == 0) {
        sample.emplace_back(sql[i], answer.value());
      }
    }
    const double ms = MillisSince(t0);
    run.tracer.End(round, sql.size());
    run.RecordOp(traced, ms, SecondsSince(loop_t0), 1);
    if (traced) {
      CounterProbe::Accumulate(before, run.probe.Read(),
                               &run.raw.traced_counters);
      ++run.raw.traced_ops;
    }
  }
  window.Close(&run.raw);
  run.raw.peak_rss_kib = PeakRssKib();
  run.raw.scalars["queries_per_round"] = 2.0 * Dashboard::kTemplates;

  if (run.args.trace) {
    LDP_RETURN_NOT_OK(ReplayClientLayers(run, table, kUsers / 4, nullptr));
  }
  engine.reset();
  LDP_ASSIGN_OR_RETURN(const auto reference,
                       ReferenceEngine(table, run.args.seed));
  CheckAgainstReference(run, *reference, sample);
  return Status::OK();
}

// ---------------------------------------------------------------------------

std::string ToJson(const Run& run, const Status& status) {
  const Raw& raw = run.raw;
  JsonOut j;
  j.Begin('{');
  j.Key("workload");
  j.Str(run.args.workload);
  j.Key("seed");
  j.Num(static_cast<double>(run.args.seed));
  j.Key("seconds");
  j.Num(run.args.seconds);
  j.Key("traced");
  j.Bool(run.args.trace);
  j.Key("threads");
  j.Num(run.threads);
  j.Key("build_type");
  j.Str(PERFBENCH_BUILD_TYPE);
  j.Key("simd_level");
  j.Str(ldp::SimdLevelName(ldp::ActiveSimdLevel()));
  j.Key("status");
  j.Str(status.ok() ? "OK" : status.ToString());
  j.Key("attempted");
  j.Num(static_cast<double>(raw.attempted));
  j.Key("failed");
  j.Num(static_cast<double>(raw.failed));
  j.Key("failures");
  j.Begin('[');
  for (const auto& f : raw.failures) j.Str(f);
  j.End(']');
  j.Key("setup_s");
  j.NumArray(raw.setup_s);
  j.Key("create_ms");
  j.NumArray(raw.create_ms);
  j.Key("op_ms");
  j.NumArray(raw.op_ms);
  j.Key("op_end_s");
  j.NumArray(raw.op_end_s);
  j.Key("op_units");
  j.NumArray(raw.op_units);
  j.Key("traced_op_ms");
  j.NumArray(raw.traced_op_ms);
  j.Key("poll_ms");
  j.NumArray(raw.poll_ms);
  j.Key("recovery_s");
  j.NumArray(raw.recovery_s);
  j.Key("peak_rss_kib");
  j.Num(static_cast<double>(raw.peak_rss_kib));
  j.Key("accuracy");
  j.Begin('[');
  for (const auto& a : raw.accuracy) {
    j.NumArray({a[0], a[1], a[2]});
  }
  j.End(']');
  j.Key("traced_ops");
  j.Num(static_cast<double>(raw.traced_ops));
  for (const auto& [key, values] :
       {std::pair{"traced_counters", &raw.traced_counters},
        std::pair{"batch_counters", &raw.batch_counters}}) {
    j.Key(key);
    j.Begin('{');
    for (size_t i = 0; i < kNumProbed; ++i) {
      j.Key(kProbedCounters[i]);
      j.Num(static_cast<double>((*values)[i]));
    }
    j.End('}');
  }
  j.Key("window_counters");
  j.Begin('{');
  for (const auto& [name, v] : raw.window_counters) {
    j.Key(name);
    j.Num(static_cast<double>(v));
  }
  j.End('}');
  j.Key("queue_wait_buckets");
  j.Begin('[');
  for (const auto& [upper, n] : raw.queue_wait_buckets) {
    j.NumArray({static_cast<double>(upper), static_cast<double>(n)});
  }
  j.End(']');
  j.Key("scalars");
  j.Begin('{');
  for (const auto& [name, v] : raw.scalars) {
    j.Key(name);
    j.Num(v);
  }
  j.End('}');
  j.End('}');
  return j.str();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !args->out.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out RAW.json --work_dir DIR\n");
    return 2;
  }
  Run run(args);
  Status status;
  if (args.workload == "ingest-live") {
    status = RunIngestLive(run);
  } else if (args.workload == "adhoc") {
    status = RunAdhoc(run);
  } else if (args.workload == "dashboard") {
    status = RunDashboard(run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::ofstream out(args.out);
  out << ToJson(run, status) << '\n';
  if (args.trace && !run.tracer.WriteTsv(args.out + ".spans.tsv")) {
    std::fprintf(stderr, "cannot write spans\n");
    return 1;
  }
  if (!out) return 1;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
