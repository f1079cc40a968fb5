// Distributed deployment simulation: the client and server halves talk only
// through serialized artifacts, exactly as separate processes would —
//
//   server                         clients (one per user)
//   ------                         ----------------------
//   publish CollectionSpec  ───▶   parse spec, build LdpClient
//                            ◀───  framed, checksummed eps-LDP report bytes
//   ingest frames into CollectionServer (validate, dedup, quarantine)
//   answer MDA box queries from accepted reports + public measures
//
// The wire is a FaultyChannel: reports can be dropped, duplicated,
// reordered, truncated, or bit-flipped at the rates given by the --*_rate
// flags, and clients retry unacked sends with exponential backoff. Also
// shows the Section 5.4 mechanism advisor picking the mechanism from the
// workload shape.
//
// Build & run:
//   ./examples/distributed_simulation [--n 100000] [--threads 4]
//       [--drop_rate 0.1] [--dup_rate 0.05] [--corrupt_rate 0.02]
//       [--reorder_rate 0.05] [--truncate_rate 0.01]
//
// With --wal_dir the server becomes durable: every delivered frame is
// written ahead to a checksummed WAL in that directory and a snapshot is cut
// every --snapshot_every frames (0 = never). --crash_after_frames N kills
// the server after N ingested frames and recovers a fresh one from the same
// directory mid-stream, printing what recovery replayed; the final counts
// and estimates match a run that never crashed. --stats_json dumps the
// metrics registry (including the storage.* counters) on exit.
//
// --threads sets the server's parallel worker count: each drained batch
// goes through CollectionServer::IngestBatch (parallel decode, then a serial
// frame-order commit that adds accepted reports), and estimation fans out
// over the same workers. Accepted/rejected counts and estimates are
// identical for every thread count.

#include <cstdio>
#include <optional>
#include <vector>

#include "common/flags.h"
#include "data/generator.h"
#include "engine/metrics.h"
#include "engine/protocol.h"
#include "engine/transport.h"
#include "mech/advisor.h"
#include "obs/metrics.h"

int main(int argc, char** argv) {
  using namespace ldp;  // NOLINT

  int64_t n = 100000;
  double eps = 5.0;
  int64_t query_dims = 1;
  int64_t threads = 1;
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double corrupt_rate = 0.0;
  double reorder_rate = 0.0;
  double truncate_rate = 0.0;
  std::string wal_dir;
  std::string wal_sync = "batch";
  int64_t snapshot_every = 50000;
  int64_t crash_after_frames = 0;
  std::string stats_json;
  FlagParser flags("distributed_simulation",
                   "client/server LDP collection over an unreliable wire");
  flags.AddInt64("n", &n, "number of simulated clients");
  flags.AddDouble("eps", &eps, "privacy budget");
  flags.AddInt64("query_dims", &query_dims, "expected dims per query");
  flags.AddInt64("threads", &threads,
                 "server worker threads for ingest/estimation (<=0 = cores)");
  flags.AddDouble("drop_rate", &drop_rate, "P(report or ack is lost)");
  flags.AddDouble("dup_rate", &dup_rate, "P(report is delivered twice)");
  flags.AddDouble("corrupt_rate", &corrupt_rate, "P(one byte is flipped)");
  flags.AddDouble("reorder_rate", &reorder_rate, "P(delivery is reordered)");
  flags.AddDouble("truncate_rate", &truncate_rate, "P(report loses its tail)");
  flags.AddString("wal_dir", &wal_dir,
                  "directory for the write-ahead log (empty = not durable)");
  flags.AddString("wal_sync", &wal_sync,
                  "WAL fsync policy: never|batch|always");
  flags.AddInt64("snapshot_every", &snapshot_every,
                 "cut a snapshot every N durable frames (0 = never)");
  flags.AddInt64("crash_after_frames", &crash_after_frames,
                 "simulate a crash + recovery after N ingested frames "
                 "(0 = never; requires --wal_dir)");
  flags.AddString("stats_json", &stats_json,
                  "write the metrics registry snapshot to this file on exit");
  if (!flags.Parse(argc, argv)) return 1;
  if (crash_after_frames > 0 && wal_dir.empty()) {
    std::fprintf(stderr, "--crash_after_frames requires --wal_dir\n");
    return 1;
  }

  // The fact table only exists on the clients' devices conceptually; we use
  // the generator to play the population.
  const Table population = MakeIpums8D(n, 54, /*seed=*/31);
  const Schema& schema = population.schema();

  // 1. The server consults the advisor and publishes the collection spec.
  MechanismParams params;
  params.epsilon = eps;
  const WorkloadProfile workload{static_cast<int>(query_dims), 0.1};
  const MechanismAdvice advice = AdviseMechanism(schema, params, workload);
  std::printf("advisor: use %s\n  rationale: %s\n\n",
              MechanismKindName(advice.recommended).c_str(),
              advice.rationale.c_str());

  const CollectionSpec spec =
      CollectionSpec::FromSchema(schema, advice.recommended, params);
  const std::string published = spec.Serialize();
  std::printf("published spec (%zu bytes):\n%s\n", published.size(),
              published.c_str());

  // 2. Clients parse the published spec and send framed reports through the
  //    (possibly faulty) channel, retrying unacked sends.
  const CollectionSpec client_view =
      CollectionSpec::Parse(published).ValueOrDie();
  LdpClient client = LdpClient::Create(client_view).ValueOrDie();

  StorageOptions storage;
  storage.dir = wal_dir;
  storage.snapshot_every_frames = static_cast<uint64_t>(
      snapshot_every > 0 ? snapshot_every : 0);
  if (!wal_dir.empty()) {
    const auto sync = WalSyncPolicyFromString(wal_sync);
    if (!sync.ok()) {
      std::fprintf(stderr, "%s\n", sync.status().ToString().c_str());
      return 1;
    }
    storage.sync = sync.value();
  }
  const auto open_server = [&]() -> Result<CollectionServer> {
    if (wal_dir.empty()) {
      return CollectionServer::Create(spec, static_cast<int>(threads));
    }
    return CollectionServer::CreateDurable(spec, storage,
                                           static_cast<int>(threads));
  };
  std::optional<CollectionServer> server(open_server().ValueOrDie());

  FaultRates rates;
  rates.drop = drop_rate;
  rates.dup = dup_rate;
  rates.reorder = reorder_rate;
  rates.truncate = truncate_rate;
  rates.corrupt = corrupt_rate;
  auto channel_or = FaultyChannel::Create(rates, /*seed=*/97);
  if (!channel_or.ok()) {
    std::fprintf(stderr, "%s\n", channel_or.status().ToString().c_str());
    return 1;
  }
  FaultyChannel channel = std::move(channel_or).value();
  SimulatedClock clock;
  TransportClient transport(&channel, &clock, RetryPolicy{}, /*seed=*/98);

  // Drained deliveries go to the server in batches: IngestBatch decodes and
  // validates frames in parallel, then commits accept/reject decisions and
  // adds accepted reports serially in arrival order.
  const auto ingest_batch = [&server](
                                const std::vector<FaultyChannel::Delivery>&
                                    batch) {
    std::vector<CollectionServer::ReportFrame> frames;
    frames.reserve(batch.size());
    for (const auto& d : batch) frames.push_back(CollectionServer::ReportFrame{d.bytes, d.user});
    (void)server->IngestBatch(frames);
  };

  // With --crash_after_frames the server object is destroyed mid-stream —
  // losing every in-memory structure — and rebuilt from the WAL directory
  // alone. Ingestion then continues where the durable log left off.
  bool crash_pending = crash_after_frames > 0;
  const auto maybe_crash = [&] {
    if (!crash_pending ||
        server->ingest_stats().total() <
            static_cast<uint64_t>(crash_after_frames)) {
      return;
    }
    crash_pending = false;
    std::printf("simulating crash after %llu ingested frames...\n",
                static_cast<unsigned long long>(server->ingest_stats().total()));
    server.reset();  // the process "dies": only the WAL directory survives
    server.emplace(open_server().ValueOrDie());
    const RecoveryInfo* info = server->recovery_info();
    std::printf(
        "recovered: snapshot %s (%llu entries, wal_seq %llu), "
        "%llu frames replayed, %llu ms\n\n",
        info->snapshot_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(info->snapshot_entries),
        static_cast<unsigned long long>(info->snapshot_wal_seq),
        static_cast<unsigned long long>(info->replayed_frames),
        static_cast<unsigned long long>(info->recovery_ms));
  };

  Rng rng(41);
  uint64_t wire_bytes = 0;
  const auto& dims = schema.sensitive_dims();
  std::vector<uint32_t> values(dims.size());
  for (uint64_t u = 0; u < population.num_rows(); ++u) {
    for (size_t i = 0; i < dims.size(); ++i) {
      values[i] = population.DimValue(dims[i], u);
    }
    const std::string frame = client.EncodeUser(values, rng).ValueOrDie();
    wire_bytes += frame.size();
    transport.SendWithRetry(u, frame);
    if ((u & 0xfff) == 0) {
      ingest_batch(channel.Drain());
      maybe_crash();
    }
  }
  ingest_batch(channel.Drain());
  maybe_crash();

  const TransportClient::Stats& cs = transport.stats();
  const ChannelStats& ch = channel.stats();
  const IngestStats& ingest = server->ingest_stats();
  std::printf(
      "transport: %llu sends, %llu attempts, %llu acked, %llu gave up, "
      "%llu ms backing off (simulated)\n",
      static_cast<unsigned long long>(cs.sends),
      static_cast<unsigned long long>(cs.attempts),
      static_cast<unsigned long long>(cs.acked),
      static_cast<unsigned long long>(cs.gave_up),
      static_cast<unsigned long long>(cs.backoff_ms));
  std::printf(
      "channel:   %llu dropped, %llu duplicated, %llu reordered, "
      "%llu truncated, %llu corrupted\n",
      static_cast<unsigned long long>(ch.dropped),
      static_cast<unsigned long long>(ch.duplicated),
      static_cast<unsigned long long>(ch.reordered),
      static_cast<unsigned long long>(ch.truncated),
      static_cast<unsigned long long>(ch.corrupted));
  std::printf(
      "ingest:    %llu accepted, %llu duplicate, %llu corrupt, %llu rejected "
      "(%llu quarantined)\n",
      static_cast<unsigned long long>(ingest.accepted),
      static_cast<unsigned long long>(ingest.duplicate),
      static_cast<unsigned long long>(ingest.corrupt),
      static_cast<unsigned long long>(ingest.rejected),
      static_cast<unsigned long long>(ingest.quarantined()));
  std::printf("collected %llu reports, %.1f bytes/user on the wire\n\n",
              static_cast<unsigned long long>(server->num_reports()),
              static_cast<double>(wire_bytes) / n);

  // 3. The server answers analytics from accepted reports + its public
  //    measure. Estimates are scoped to the accepted cohort; the population
  //    figure extrapolates by the empirical response rate.
  const int measure = schema.FindAttribute("weekly_work_hour").ValueOrDie();
  const WeightVector weights(population.MeasureColumn(measure));
  std::vector<Interval> ranges;
  for (const int attr : dims) {
    ranges.push_back(Interval{0, schema.attribute(attr).domain_size - 1});
  }
  ranges[0] = {10, 35};  // age band — a "1+0" query

  const auto est = server->EstimateBox(ranges, weights);
  if (!est.ok()) {
    std::fprintf(stderr, "estimate failed: %s\n",
                 est.status().ToString().c_str());
    return 1;
  }
  double truth_accepted = 0.0;
  double truth_population = 0.0;
  for (uint64_t u = 0; u < population.num_rows(); ++u) {
    if (ranges[0].Contains(population.DimValue(dims[0], u))) {
      truth_population += population.MeasureValue(measure, u);
      if (server->has_report(u)) {
        truth_accepted += population.MeasureValue(measure, u);
      }
    }
  }
  const double pop_est =
      server->EstimateBoxForPopulation(ranges, weights, population.num_rows())
          .ValueOrDie();
  std::printf(
      "SUM(weekly_work_hour) for age in [10, 35]:\n"
      "  accepted-cohort estimate   = %.1f  (exact %.1f, rel err %.3f)\n"
      "  population extrapolation   = %.1f  (exact %.1f, rel err %.3f)\n",
      est.value(), truth_accepted, RelativeError(est.value(), truth_accepted),
      pop_est, truth_population, RelativeError(pop_est, truth_population));

  if (!wal_dir.empty()) {
    if (const Status flushed = server->Flush(); !flushed.ok()) {
      std::fprintf(stderr, "WAL flush failed: %s\n",
                   flushed.ToString().c_str());
      return 1;
    }
  }
  if (!stats_json.empty()) {
    const Status wrote = GlobalMetrics().WriteJsonFile(stats_json);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", stats_json.c_str());
  }
  return 0;
}
