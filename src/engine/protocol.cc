#include "engine/protocol.h"

#include <chrono>
#include <sstream>

#include "common/hash.h"
#include "common/string_util.h"
#include "mech/multi.h"
#include "obs/metrics.h"

namespace ldp {

namespace {

/// GlobalMetrics mirrors of IngestStats (ingest.*). The per-server struct
/// stays the authoritative view; these aggregate across all servers in the
/// process for the exported snapshot.
struct IngestCounters {
  Counter* accepted;
  Counter* duplicate;
  Counter* corrupt;
  Counter* rejected;
};
const IngestCounters& IngestMetrics() {
  static const IngestCounters counters = {
      GlobalMetrics().counter("ingest.accepted"),
      GlobalMetrics().counter("ingest.duplicate"),
      GlobalMetrics().counter("ingest.corrupt"),
      GlobalMetrics().counter("ingest.rejected"),
  };
  return counters;
}

LatencyHistogram* RecoveryMsHistogram() {
  static LatencyHistogram* histogram =
      GlobalMetrics().histogram("storage.recovery_ms");
  return histogram;
}

constexpr std::string_view kHeader = "ldpmda-collection-spec v1";
constexpr std::string_view kFrameMagic = "LDPR";

void PutU32Le(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64Le(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadU32Le(std::string_view in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64Le(std::string_view in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

/// The mechanism instance a spec describes: the MultiMechanism composite
/// when the spec lists several kinds, the single kind otherwise. Shared by
/// the client and server halves so both always agree on the wire format.
Result<std::unique_ptr<Mechanism>> BuildSpecMechanism(
    const CollectionSpec& spec, const Schema& schema) {
  if (spec.mechanisms.size() > 1) {
    LDP_ASSIGN_OR_RETURN(
        auto multi,
        MultiMechanism::Create(schema, spec.params, spec.mechanisms));
    return std::unique_ptr<Mechanism>(std::move(multi));
  }
  const MechanismKind kind =
      spec.mechanisms.empty() ? spec.mechanism : spec.mechanisms[0];
  return CreateMechanism(kind, schema, spec.params);
}

}  // namespace

CollectionSpec CollectionSpec::FromSchema(const Schema& schema,
                                          MechanismKind kind,
                                          const MechanismParams& params) {
  CollectionSpec spec;
  spec.mechanism = kind;
  spec.params = params;
  for (const int attr : schema.sensitive_dims()) {
    spec.sensitive_attributes.push_back(schema.attribute(attr));
  }
  return spec;
}

CollectionSpec CollectionSpec::FromSchema(const Schema& schema,
                                          std::span<const MechanismKind> kinds,
                                          const MechanismParams& params) {
  CollectionSpec spec = FromSchema(
      schema, kinds.empty() ? MechanismKind::kHio : kinds[0], params);
  if (kinds.size() > 1) {
    spec.mechanisms.assign(kinds.begin(), kinds.end());
  }
  return spec;
}

std::string CollectionSpec::Serialize() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "mechanism=";
  if (mechanisms.size() > 1) {
    for (size_t i = 0; i < mechanisms.size(); ++i) {
      if (i > 0) os << ",";
      os << ToLower(MechanismKindName(mechanisms[i]));
    }
  } else {
    os << ToLower(MechanismKindName(
        mechanisms.empty() ? mechanism : mechanisms[0]));
  }
  os << "\n";
  os << "epsilon=" << params.epsilon << "\n";
  os << "fanout=" << params.fanout << "\n";
  os << "fo=" << FoKindName(params.fo_kind) << "\n";
  os << "pool=" << params.hash_pool_size << "\n";
  if (params.population_hint != 0) {
    os << "hint=" << params.population_hint << "\n";
  }
  for (const Attribute& attr : sensitive_attributes) {
    os << "dim=" << attr.name << " "
       << (attr.kind == AttributeKind::kSensitiveOrdinal ? "ordinal"
                                                         : "categorical")
       << " " << attr.domain_size << "\n";
  }
  return os.str();
}

Result<CollectionSpec> CollectionSpec::Parse(std::string_view text) {
  const auto lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::ParseError("spec line 1: expected header '" +
                              std::string(kHeader) + "'");
  }
  CollectionSpec spec;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t lineno = i + 1;
    // Every diagnostic names the 1-based line and the field being parsed.
    const auto err = [lineno](std::string_view field, std::string_view what) {
      return Status::ParseError("spec line " + std::to_string(lineno) + ": " +
                                std::string(field) + ": " + std::string(what));
    };
    const std::string_view line = Trim(lines[i]);
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return err("line", "expected key=value, got '" + std::string(line) + "'");
    }
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = Trim(line.substr(eq + 1));
    if (key == "mechanism") {
      // One kind, or a comma-separated multi-mechanism list (first wins the
      // primary slot). Duplicates are caught by MultiMechanism::Create.
      std::vector<MechanismKind> kinds;
      for (const std::string& part : Split(value, ',')) {
        const auto kind = MechanismKindFromString(Trim(part));
        if (!kind.ok()) return err(key, kind.status().message());
        kinds.push_back(kind.value());
      }
      if (kinds.empty()) return err(key, "expected at least one mechanism");
      spec.mechanism = kinds[0];
      if (kinds.size() > 1) spec.mechanisms = std::move(kinds);
    } else if (key == "epsilon") {
      const auto eps = ParseDouble(value);
      if (!eps.ok()) return err(key, eps.status().message());
      spec.params.epsilon = eps.value();
    } else if (key == "fanout") {
      const auto fanout = ParseInt64(value);
      if (!fanout.ok()) return err(key, fanout.status().message());
      if (fanout.value() < 2) {
        return err(key, "must be >= 2 (got '" + std::string(value) + "')");
      }
      spec.params.fanout = static_cast<uint32_t>(fanout.value());
    } else if (key == "fo") {
      const auto fo = FoKindFromString(value);
      if (!fo.ok()) return err(key, fo.status().message());
      spec.params.fo_kind = fo.value();
    } else if (key == "pool") {
      const auto pool = ParseInt64(value);
      if (!pool.ok()) return err(key, pool.status().message());
      if (pool.value() < 0) {
        return err(key, "must be >= 0 (got '" + std::string(value) + "')");
      }
      spec.params.hash_pool_size = static_cast<uint32_t>(pool.value());
    } else if (key == "hint") {
      const auto hint = ParseInt64(value);
      if (!hint.ok()) return err(key, hint.status().message());
      if (hint.value() < 0) {
        return err(key, "must be >= 0 (got '" + std::string(value) + "')");
      }
      spec.params.population_hint = static_cast<uint64_t>(hint.value());
    } else if (key == "dim") {
      const auto parts = Split(value, ' ');
      if (parts.size() != 3) {
        return err(key, "needs 'name kind domain', got '" +
                            std::string(value) + "'");
      }
      Attribute attr;
      attr.name = parts[0];
      if (parts[1] == "ordinal") {
        attr.kind = AttributeKind::kSensitiveOrdinal;
      } else if (parts[1] == "categorical") {
        attr.kind = AttributeKind::kSensitiveCategorical;
      } else {
        return err(key, "kind must be 'ordinal' or 'categorical', got '" +
                            parts[1] + "'");
      }
      const auto domain = ParseInt64(parts[2]);
      if (!domain.ok()) return err(key, domain.status().message());
      if (domain.value() <= 0) {
        return err(key, "domain must be > 0 (got '" + parts[2] + "')");
      }
      attr.domain_size = static_cast<uint64_t>(domain.value());
      spec.sensitive_attributes.push_back(std::move(attr));
    } else {
      return err(key, "unknown spec key");
    }
  }
  if (spec.sensitive_attributes.empty()) {
    return Status::ParseError(
        "spec line " + std::to_string(lines.size()) +
        ": dim: spec declares no sensitive dimensions");
  }
  return spec;
}

Result<Schema> CollectionSpec::ToSchema() const {
  Schema schema;
  for (const Attribute& attr : sensitive_attributes) {
    if (attr.kind == AttributeKind::kSensitiveOrdinal) {
      LDP_RETURN_NOT_OK(schema.AddOrdinal(attr.name, attr.domain_size));
    } else {
      LDP_RETURN_NOT_OK(schema.AddCategorical(attr.name, attr.domain_size));
    }
  }
  return schema;
}

std::string FrameReport(std::string_view payload) {
  std::string frame;
  frame.reserve(kReportFrameHeaderBytes + payload.size());
  frame.append(kFrameMagic);
  frame.push_back(static_cast<char>(kReportFrameVersion));
  PutU32Le(&frame, static_cast<uint32_t>(payload.size()));
  PutU64Le(&frame, Checksum64(payload));
  frame.append(payload);
  return frame;
}

Result<std::string_view> UnframeReport(std::string_view frame) {
  if (frame.size() < kReportFrameHeaderBytes) {
    return Status::ParseError("report frame truncated before header (" +
                              std::to_string(frame.size()) + " bytes)");
  }
  if (frame.substr(0, kFrameMagic.size()) != kFrameMagic) {
    return Status::ParseError("bad report frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(frame[4]);
  if (version != kReportFrameVersion) {
    return Status::ParseError("unsupported report frame version " +
                              std::to_string(version));
  }
  const uint32_t payload_len = ReadU32Le(frame.substr(5, 4));
  const uint64_t checksum = ReadU64Le(frame.substr(9, 8));
  const std::string_view payload = frame.substr(kReportFrameHeaderBytes);
  if (payload.size() != payload_len) {
    return Status::ParseError(
        "report frame length mismatch: header says " +
        std::to_string(payload_len) + " payload bytes, frame carries " +
        std::to_string(payload.size()));
  }
  if (Checksum64(payload) != checksum) {
    return Status::ParseError("report frame checksum mismatch");
  }
  return payload;
}

Result<LdpClient> LdpClient::Create(const CollectionSpec& spec) {
  LDP_ASSIGN_OR_RETURN(Schema schema, spec.ToSchema());
  LDP_ASSIGN_OR_RETURN(auto mechanism, BuildSpecMechanism(spec, schema));
  return LdpClient(spec, std::move(schema), std::move(mechanism));
}

Result<std::string> LdpClient::EncodeUser(std::span<const uint32_t> values,
                                          Rng& rng) const {
  LDP_RETURN_NOT_OK(ValidateSensitiveValues(schema_, values));
  return FrameReport(mechanism_->EncodeUser(values, rng).Serialize());
}

Result<CollectionServer> CollectionServer::Create(const CollectionSpec& spec,
                                                  int num_threads) {
  LDP_ASSIGN_OR_RETURN(Schema schema, spec.ToSchema());
  auto exec = std::make_shared<ExecutionContext>(num_threads);
  LDP_ASSIGN_OR_RETURN(auto mechanism, BuildSpecMechanism(spec, schema));
  mechanism->set_execution_context(exec.get());
  return CollectionServer(spec, std::move(schema), std::move(exec),
                          std::move(mechanism));
}

Result<CollectionServer> CollectionServer::CreateDurable(
    const CollectionSpec& spec, const StorageOptions& storage,
    int num_threads) {
  const auto start = std::chrono::steady_clock::now();
  LDP_ASSIGN_OR_RETURN(CollectionServer server, Create(spec, num_threads));

  SnapshotLoad snapshot;
  WalScan replay;
  LDP_ASSIGN_OR_RETURN(
      std::shared_ptr<DurableStore> store,
      DurableStore::Open(storage, spec.Serialize(), &snapshot, &replay,
                         nullptr));

  // Phase 1 — snapshot restore: the accepted (user, payload) sequence in
  // acceptance order is the canonical accumulator state, so feeding it back
  // through AddReport rebuilds the mechanism bit-identically. Stats are
  // restored from the header (the quarantined frames themselves were
  // compacted away, but their counts survive).
  if (snapshot.loaded) {
    server.users_.reserve(snapshot.data.entries.size());
    for (const SnapshotEntry& entry : snapshot.data.entries) {
      auto report = LdpReport::Deserialize(entry.payload);
      if (!report.ok()) {
        // The snapshot passed its checksum, so this is a writer bug, not
        // disk corruption; refuse rather than recover a wrong state.
        return Status::Internal("snapshot entry for user " +
                                std::to_string(entry.user) +
                                " undecodable despite valid checksum: " +
                                report.status().message());
      }
      LDP_RETURN_NOT_OK(server.mechanism_->AddReport(report.value(),
                                                     entry.user));
      server.users_.insert(entry.user);
    }
    server.stats_.accepted = snapshot.data.accepted;
    server.stats_.duplicate = snapshot.data.duplicate;
    server.stats_.corrupt = snapshot.data.corrupt;
    server.stats_.rejected = snapshot.data.rejected;
  }

  // Phase 2 — WAL replay: every logged frame (corrupt and duplicate ones
  // included — they were logged verbatim) re-runs the serial decision path,
  // so post-recovery IngestStats match the pre-crash server exactly.
  server.store_ = std::move(store);
  for (const WalRecord& record : replay.records) {
    for (const WalRecord::Frame& frame : record.frames) {
      (void)server.ApplyFrame(frame.bytes, frame.user);  // fate re-decided
    }
  }

  const uint64_t elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  server.store_->set_recovery_ms(elapsed_ms);
  RecoveryMsHistogram()->Record(elapsed_ms);
  return server;
}

Status CollectionServer::Ingest(std::string_view frame_bytes, uint64_t user) {
  if (store_ != nullptr) {
    // Write-ahead: the frame must be in the log before it may mutate the
    // server, so the recovered state is always a prefix of the ingest
    // stream. An append failure (ENOSPC, I/O error) leaves this frame
    // entirely un-applied — the caller may retry it later.
    const WalFrameRef ref{user, frame_bytes};
    LDP_RETURN_NOT_OK(store_->AppendFrames(std::span<const WalFrameRef>(&ref, 1)));
  }
  const Status fate = ApplyFrame(frame_bytes, user);
  MaybeSnapshot();
  return fate;
}

Status CollectionServer::ApplyFrame(std::string_view frame_bytes,
                                    uint64_t user) {
  const auto payload = UnframeReport(frame_bytes);
  if (!payload.ok()) {
    ++stats_.corrupt;
    IngestMetrics().corrupt->Add(1);
    return payload.status();
  }
  const auto report = LdpReport::Deserialize(payload.value());
  if (!report.ok()) {
    ++stats_.corrupt;
    IngestMetrics().corrupt->Add(1);
    return report.status();
  }
  if (users_.contains(user)) {
    ++stats_.duplicate;
    IngestMetrics().duplicate->Add(1);
    return Status::AlreadyExists("user " + std::to_string(user) +
                                 " already reported; duplicate discarded");
  }
  const Status added = mechanism_->AddReport(report.value(), user);
  if (!added.ok()) {
    // Well-formed bytes that don't fit the spec (e.g. wrong mechanism shape).
    // The user stays un-seen so a correct retry can still land.
    ++stats_.rejected;
    IngestMetrics().rejected->Add(1);
    return added;
  }
  users_.insert(user);
  ++stats_.accepted;
  IngestMetrics().accepted->Add(1);
  if (store_ != nullptr) store_->RetainAccepted(user, payload.value());
  return Status::OK();
}

Status CollectionServer::IngestBatch(std::span<const ReportFrame> frames) {
  const uint64_t n = frames.size();
  if (n == 0) return Status::OK();

  if (store_ != nullptr) {
    // Write-ahead: the whole batch becomes one WAL record before any frame
    // mutates the server, so recovery is batch-aligned — either the entire
    // batch replays or none of it does.
    std::vector<WalFrameRef> refs;
    refs.reserve(n);
    for (const ReportFrame& frame : frames) {
      refs.push_back(WalFrameRef{frame.user, frame.bytes});
    }
    LDP_RETURN_NOT_OK(store_->AppendFrames(refs));
  }

  // Phase A — parallel decode: unframe, deserialize and structurally
  // validate every frame. Each slot is written by exactly one worker.
  enum : uint8_t { kDecoded = 0, kCorrupt = 1, kMisfit = 2 };
  std::vector<LdpReport> reports(n);
  std::vector<uint8_t> fate(n, kDecoded);
  constexpr uint64_t kDecodeChunk = 1024;
  exec_->ParallelChunks(
      n, kDecodeChunk, [&](uint64_t, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          const auto payload = UnframeReport(frames[i].bytes);
          if (!payload.ok()) {
            fate[i] = kCorrupt;
            continue;
          }
          auto report = LdpReport::Deserialize(payload.value());
          if (!report.ok()) {
            fate[i] = kCorrupt;
            continue;
          }
          if (!mechanism_->ValidateReport(report.value()).ok()) {
            fate[i] = kMisfit;
            continue;
          }
          reports[i] = std::move(report).value();
        }
      });

  // Phase B — serial commit, in frame order: exactly the fate sequence the
  // one-at-a-time Ingest loop produces (corrupt before duplicate before
  // rejected), including dedup against earlier frames of this same batch.
  // Accepted reports go straight into the live mechanism in ApplyFrame's
  // order, so the report sequence is the serial one for any thread count.
  for (uint64_t i = 0; i < n; ++i) {
    if (fate[i] == kCorrupt) {
      ++stats_.corrupt;
      IngestMetrics().corrupt->Add(1);
      continue;
    }
    if (users_.contains(frames[i].user)) {
      ++stats_.duplicate;
      IngestMetrics().duplicate->Add(1);
      continue;
    }
    if (fate[i] == kMisfit ||
        !mechanism_->AddReport(reports[i], frames[i].user).ok()) {
      ++stats_.rejected;
      IngestMetrics().rejected->Add(1);
      continue;
    }
    users_.insert(frames[i].user);
    ++stats_.accepted;
    IngestMetrics().accepted->Add(1);
    if (store_ != nullptr) {
      // fate != kCorrupt, so UnframeReport succeeded in phase A: the
      // payload is exactly the frame bytes past the header.
      store_->RetainAccepted(frames[i].user,
                             frames[i].bytes.substr(kReportFrameHeaderBytes));
    }
  }
  MaybeSnapshot();
  return Status::OK();
}

void CollectionServer::MaybeSnapshot() {
  if (store_ == nullptr || !store_->ShouldSnapshot()) return;
  // Failure is non-fatal: the WAL still covers everything this snapshot
  // would have compacted, so ingest keeps going. The error is observable
  // through last_snapshot_status() and storage.snapshot_failures.
  (void)store_->WriteSnapshotNow(stats_.accepted, stats_.duplicate,
                                 stats_.corrupt, stats_.rejected);
}

Result<double> CollectionServer::EstimateBox(std::span<const Interval> ranges,
                                             const WeightVector& weights) const {
  if (stats_.accepted == 0) {
    return Status::FailedPrecondition(
        "no accepted reports (" + std::to_string(stats_.quarantined()) +
        " quarantined): nothing to estimate from");
  }
  return mechanism_->EstimateBox(ranges, weights);
}

Result<double> CollectionServer::EstimateBoxForPopulation(
    std::span<const Interval> ranges, const WeightVector& weights,
    uint64_t intended_population) const {
  if (intended_population < stats_.accepted) {
    return Status::InvalidArgument(
        "intended population " + std::to_string(intended_population) +
        " smaller than the " + std::to_string(stats_.accepted) +
        " accepted reports");
  }
  LDP_ASSIGN_OR_RETURN(const double cohort, EstimateBox(ranges, weights));
  return cohort * static_cast<double>(intended_population) /
         static_cast<double>(stats_.accepted);
}

}  // namespace ldp
