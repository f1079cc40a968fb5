#include "storage/snapshot.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/coding.h"

namespace ldp {

namespace {

using storage::GetU32;
using storage::GetU64;
using storage::HexToSeq;
using storage::PutU32;
using storage::PutU64;
using storage::SeqToHex;

constexpr std::string_view kSnapshotMagic = "LDPS";
constexpr size_t kSnapshotHeaderBytes = 16;  // magic, version, pad, checksum

struct SnapshotCounters {
  Counter* writes;
  Counter* failures;
  Counter* quarantined;
};
const SnapshotCounters& SnapshotMetrics() {
  static const SnapshotCounters counters = {
      GlobalMetrics().counter("storage.snapshot_writes"),
      GlobalMetrics().counter("storage.snapshot_failures"),
      GlobalMetrics().counter("storage.snapshot_quarantined"),
  };
  return counters;
}

bool ParseSnapshotName(std::string_view name, uint64_t* wal_seq) {
  constexpr std::string_view kPrefix = "snap-";
  constexpr std::string_view kSuffix = ".ldps";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  return HexToSeq(name.substr(kPrefix.size(), 16), wal_seq);
}

std::string EncodeSnapshot(const SnapshotData& data,
                           std::span<const SnapshotEntry> entries) {
  std::string body;
  PutU64(&body, data.wal_seq);
  PutU64(&body, data.accepted);
  PutU64(&body, data.duplicate);
  PutU64(&body, data.corrupt);
  PutU64(&body, data.rejected);
  PutU32(&body, static_cast<uint32_t>(data.spec.size()));
  body.append(data.spec);
  PutU64(&body, entries.size());
  for (const SnapshotEntry& entry : entries) {
    PutU64(&body, entry.user);
    PutU32(&body, static_cast<uint32_t>(entry.payload.size()));
    body.append(entry.payload);
  }
  std::string file;
  file.reserve(kSnapshotHeaderBytes + body.size());
  file.append(kSnapshotMagic);
  file.push_back(static_cast<char>(kSnapshotVersion));
  file.append(3, '\0');
  PutU64(&file, Checksum64(body));
  file.append(body);
  return file;
}

Result<SnapshotData> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes ||
      bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::ParseError("snapshot magic missing or file truncated");
  }
  if (static_cast<uint8_t>(bytes[4]) != kSnapshotVersion) {
    return Status::ParseError(
        "unsupported snapshot version " +
        std::to_string(static_cast<uint8_t>(bytes[4])));
  }
  const uint64_t checksum = GetU64(bytes.substr(8, 8));
  const std::string_view body = bytes.substr(kSnapshotHeaderBytes);
  if (Checksum64(body) != checksum) {
    return Status::ParseError("snapshot checksum mismatch");
  }
  // Checksummed body: structural errors below mean a writer bug or a
  // checksum collision, but stay typed rather than trusting offsets.
  if (body.size() < 52) return Status::ParseError("snapshot body truncated");
  SnapshotData data;
  data.wal_seq = GetU64(body.substr(0, 8));
  data.accepted = GetU64(body.substr(8, 8));
  data.duplicate = GetU64(body.substr(16, 8));
  data.corrupt = GetU64(body.substr(24, 8));
  data.rejected = GetU64(body.substr(32, 8));
  const uint32_t spec_len = GetU32(body.substr(40, 4));
  size_t pos = 44;
  if (body.size() < pos + spec_len + 8) {
    return Status::ParseError("snapshot spec truncated");
  }
  data.spec.assign(body.substr(pos, spec_len));
  pos += spec_len;
  const uint64_t entry_count = GetU64(body.substr(pos, 8));
  pos += 8;
  // Each entry takes at least 12 bytes (user + payload length): bound the
  // count by the body before it sizes an allocation.
  if (entry_count > (body.size() - pos) / 12) {
    return Status::ParseError("snapshot entry count " +
                              std::to_string(entry_count) +
                              " exceeds the body");
  }
  data.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    if (body.size() < pos + 12) {
      return Status::ParseError("snapshot entry " + std::to_string(i) +
                                " truncated");
    }
    SnapshotEntry entry;
    entry.user = GetU64(body.substr(pos, 8));
    const uint32_t len = GetU32(body.substr(pos + 8, 4));
    pos += 12;
    if (body.size() < pos + len) {
      return Status::ParseError("snapshot entry " + std::to_string(i) +
                                " payload truncated");
    }
    entry.payload.assign(body.substr(pos, len));
    pos += len;
    data.entries.push_back(std::move(entry));
  }
  if (pos != body.size()) {
    return Status::ParseError("snapshot carries trailing bytes");
  }
  return data;
}

}  // namespace

std::string SnapshotFileName(uint64_t wal_seq) {
  return "snap-" + SeqToHex(wal_seq) + ".ldps";
}

Status WriteSnapshotFile(Fs& fs, const std::string& dir,
                         const SnapshotData& header,
                         std::span<const SnapshotEntry> entries) {
  const std::string final_path =
      JoinPath(dir, SnapshotFileName(header.wal_seq));
  const std::string tmp_path = final_path + ".tmp";
  const std::string bytes = EncodeSnapshot(header, entries);

  const Status written = [&]() -> Status {
    LDP_ASSIGN_OR_RETURN(auto file, fs.OpenAppend(tmp_path));
    LDP_RETURN_NOT_OK(file->Append(bytes));
    // Snapshots are always synced before the rename publishes them,
    // whatever the WAL's fsync policy: the atomic rename must never expose
    // a file whose bytes could still be lost.
    LDP_RETURN_NOT_OK(file->Sync());
    LDP_RETURN_NOT_OK(file->Close());
    return fs.RenameFile(tmp_path, final_path);
  }();
  if (!written.ok()) {
    SnapshotMetrics().failures->Add(1);
    (void)fs.RemoveFile(tmp_path);  // best effort; recovery ignores .tmp
    return written;
  }
  SnapshotMetrics().writes->Add(1);
  return Status::OK();
}

Result<SnapshotLoad> LoadLatestSnapshot(Fs& fs, const std::string& dir,
                                        std::string_view expected_spec) {
  SnapshotLoad load;
  auto names_or = fs.ListDir(dir);
  if (!names_or.ok()) {
    if (names_or.status().code() == StatusCode::kNotFound) return load;
    return names_or.status();
  }
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  for (const std::string& name : names_or.value()) {
    uint64_t wal_seq = 0;
    if (ParseSnapshotName(name, &wal_seq)) snapshots.emplace_back(wal_seq, name);
  }
  std::sort(snapshots.begin(), snapshots.end());

  // Newest first; a corrupt file is quarantined (renamed out of the scan)
  // and the next older generation is tried — degradation, never an abort.
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const std::string path = JoinPath(dir, it->second);
    LDP_ASSIGN_OR_RETURN(const std::string bytes, fs.ReadFileToString(path));
    auto decoded = DecodeSnapshot(bytes);
    if (!decoded.ok()) {
      ++load.quarantined;
      SnapshotMetrics().quarantined->Add(1);
      load.note = Status::ParseError(
          "snapshot '" + it->second + "' quarantined (" +
          decoded.status().message() + "); falling back to " +
          (std::next(it) != snapshots.rend() ? "older snapshot"
                                             : "full WAL replay"));
      (void)fs.RenameFile(path, path + ".quarantined");
      continue;
    }
    if (decoded.value().spec != expected_spec) {
      return Status::InvalidArgument(
          "snapshot '" + it->second +
          "' belongs to a different collection spec; refusing to recover");
    }
    load.loaded = true;
    load.data = std::move(decoded).value();
    break;
  }
  return load;
}

Status RemoveSnapshotsBelow(Fs& fs, const std::string& dir,
                            uint64_t keep_from_seq) {
  auto names_or = fs.ListDir(dir);
  if (!names_or.ok()) {
    if (names_or.status().code() == StatusCode::kNotFound) return Status::OK();
    return names_or.status();
  }
  Status first_error = Status::OK();
  for (const std::string& name : names_or.value()) {
    uint64_t wal_seq = 0;
    if (!ParseSnapshotName(name, &wal_seq)) continue;
    if (wal_seq >= keep_from_seq) continue;
    const Status removed = fs.RemoveFile(JoinPath(dir, name));
    if (!removed.ok() && first_error.ok()) first_error = removed;
  }
  return first_error;
}

}  // namespace ldp
