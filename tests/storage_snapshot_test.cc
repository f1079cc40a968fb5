// Snapshot file tests: checksummed roundtrip, quarantine-and-fall-back on
// corruption (flipped header byte, forged entry count), spec mismatch
// refusal, retention deletes, and .tmp leftovers being invisible to
// recovery.

#include <gtest/gtest.h>

#include <string>

#include "common/hash.h"
#include "storage/coding.h"
#include "storage/fault_fs.h"
#include "storage/snapshot.h"

namespace ldp {
namespace {

constexpr char kDir[] = "/snap";
constexpr char kSpec[] = "spec-v1";

SnapshotData MakeData(uint64_t wal_seq, uint64_t accepted) {
  SnapshotData data;
  data.wal_seq = wal_seq;
  data.accepted = accepted;
  data.duplicate = 2;
  data.corrupt = 3;
  data.rejected = 1;
  data.spec = kSpec;
  for (uint64_t i = 0; i < accepted; ++i) {
    data.entries.push_back(
        SnapshotEntry{100 + i, "payload-" + std::to_string(wal_seq) + "-" +
                                   std::to_string(i)});
  }
  return data;
}

Status Write(Fs& fs, const SnapshotData& data) {
  return WriteSnapshotFile(fs, kDir, data, data.entries);
}

TEST(SnapshotTest, WriteLoadRoundTrip) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  const SnapshotData data = MakeData(/*wal_seq=*/7, /*accepted=*/4);
  ASSERT_TRUE(Write(fs, data).ok());

  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.quarantined, 0u);
  EXPECT_TRUE(load.note.ok());
  EXPECT_EQ(load.data.wal_seq, 7u);
  EXPECT_EQ(load.data.accepted, 4u);
  EXPECT_EQ(load.data.duplicate, 2u);
  EXPECT_EQ(load.data.corrupt, 3u);
  EXPECT_EQ(load.data.rejected, 1u);
  EXPECT_EQ(load.data.spec, kSpec);
  ASSERT_EQ(load.data.entries.size(), 4u);
  EXPECT_EQ(load.data.entries[0].user, 100u);
  EXPECT_EQ(load.data.entries[3].payload, "payload-7-3");
}

TEST(SnapshotTest, NoDirectoryMeansEmptyLoad) {
  FaultFs fs;
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  EXPECT_FALSE(load.loaded);
  EXPECT_EQ(load.quarantined, 0u);
}

TEST(SnapshotTest, NewestWins) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 6)).ok());
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 9u);
  EXPECT_EQ(load.data.entries.size(), 6u);
}

TEST(SnapshotTest, FlippedHeaderByteQuarantinesAndFallsBackToOlder) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 6)).ok());
  // Flip a byte in the newest snapshot's checksum field (header byte 8).
  const std::string newest = JoinPath(kDir, SnapshotFileName(9));
  const uint64_t size =
      fs.ReadFileToString(newest).ValueOrDie().size();
  fs.CorruptByte(newest, size - 9);

  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 5u);  // older generation took over
  EXPECT_EQ(load.quarantined, 1u);
  EXPECT_FALSE(load.note.ok());
  // The corrupt file was renamed out of the scan, not deleted.
  EXPECT_FALSE(fs.FileExists(newest).ValueOrDie());
  EXPECT_TRUE(fs.FileExists(newest + ".quarantined").ValueOrDie());
}

TEST(SnapshotTest, CorruptOnlySnapshotFallsBackToEmpty) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  fs.CorruptByte(JoinPath(kDir, SnapshotFileName(5)), 0);  // body tail
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  EXPECT_FALSE(load.loaded);  // caller degrades to full WAL replay
  EXPECT_EQ(load.quarantined, 1u);
  EXPECT_FALSE(load.note.ok());
}

TEST(SnapshotTest, ForgedEntryCountFallsBackToEmpty) {
  // A checksum-valid body (Checksum64 is unkeyed, so anyone can forge one)
  // whose entry count no body could hold: decoding must reject the count
  // before reserving for it, then quarantine the file like any corruption.
  std::string body;
  for (int i = 0; i < 5; ++i) storage::PutU64(&body, 1);  // seq + counters
  storage::PutU32(&body, static_cast<uint32_t>(std::string(kSpec).size()));
  body.append(kSpec);
  storage::PutU64(&body, uint64_t{1} << 61);  // entry count
  std::string file = "LDPS";
  file.push_back(static_cast<char>(kSnapshotVersion));
  file.append(3, '\0');
  storage::PutU64(&file, Checksum64(body));
  file.append(body);

  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  auto out =
      fs.OpenAppend(JoinPath(kDir, SnapshotFileName(5))).ValueOrDie();
  ASSERT_TRUE(out->Append(file).ok());
  ASSERT_TRUE(out->Close().ok());

  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  EXPECT_FALSE(load.loaded);  // caller degrades to full WAL replay
  EXPECT_EQ(load.quarantined, 1u);
  EXPECT_EQ(load.note.code(), StatusCode::kParseError);
  EXPECT_NE(load.note.message().find("entry count"), std::string::npos)
      << load.note.message();
}

TEST(SnapshotTest, SpecMismatchRefusesRecovery) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  const auto load = LoadLatestSnapshot(fs, kDir, "some-other-spec");
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TmpLeftoverIsInvisible) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  // A crash between .tmp write and rename leaves this file behind.
  auto tmp =
      fs.OpenAppend(JoinPath(kDir, SnapshotFileName(9) + ".tmp")).ValueOrDie();
  ASSERT_TRUE(tmp->Append("half-written garbage").ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 5u);
  EXPECT_EQ(load.quarantined, 0u);
}

TEST(SnapshotTest, RemoveSnapshotsBelowKeepsNewerGenerations) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(3, 1)).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 3)).ok());
  ASSERT_TRUE(RemoveSnapshotsBelow(fs, kDir, 5).ok());
  EXPECT_FALSE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(3))).ValueOrDie());
  EXPECT_TRUE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(5))).ValueOrDie());
  EXPECT_TRUE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(9))).ValueOrDie());
}

}  // namespace
}  // namespace ldp
