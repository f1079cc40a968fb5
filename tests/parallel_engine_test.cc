// End-to-end determinism of the shard-parallel pipeline: for a fixed seed,
// the engine's estimates are bit-identical for every num_threads (encoding
// uses per-chunk RNG substreams, shards merge in order, and estimation
// reduces in fixed chunk order), and CollectionServer::IngestBatch is
// equivalent to a serial Ingest loop — same stats, same dedup set, same
// estimates bit for bit — even with corrupt, duplicate, and misfit frames in
// the batch and batches landing on a server that already holds reports.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "engine/protocol.h"

namespace ldp {
namespace {

const Table& SmallTable() {
  static const Table* table = new Table(MakeIpums4D(3000, 12, /*seed=*/21));
  return *table;
}

std::vector<double> RunWorkload(const AnalyticsEngine& engine) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9",
      "SELECT SUM(weekly_work_hour) FROM T WHERE income BETWEEN 0 AND 5",
      "SELECT COUNT(*) FROM T WHERE marital_status = 2 OR age = 3",
      "SELECT AVG(weekly_work_hour) FROM T WHERE age BETWEEN 1 AND 10 "
      "AND sex = 1",
  };
  std::vector<double> answers;
  for (const char* sql : sqls) {
    answers.push_back(engine.ExecuteSql(sql).ValueOrDie());
  }
  return answers;
}

class ParallelEngineTest : public ::testing::TestWithParam<MechanismKind> {};

TEST_P(ParallelEngineTest, EstimatesBitIdenticalAcrossThreadCounts) {
  EngineOptions options;
  options.mechanism = GetParam();
  options.params.epsilon = 2.0;
  options.seed = 1234;

  options.num_threads = 1;
  const auto serial =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  const std::vector<double> expected = RunWorkload(*serial);

  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const auto engine =
        AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
    const std::vector<double> answers = RunWorkload(*engine);
    ASSERT_EQ(answers.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(answers[i], expected[i])
          << MechanismKindName(GetParam()) << " query " << i << " with "
          << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ParallelEngineTest,
                         ::testing::Values(MechanismKind::kHi,
                                           MechanismKind::kHio,
                                           MechanismKind::kSc,
                                           MechanismKind::kMg),
                         [](const ::testing::TestParamInfo<MechanismKind>&
                                info) { return MechanismKindName(info.param); });

TEST(ParallelEngineTest, AutoThreadCountMatchesSerial) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 77;
  options.num_threads = 1;
  const auto serial =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  options.num_threads = 0;  // one worker per hardware thread
  const auto parallel =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  EXPECT_EQ(RunWorkload(*parallel), RunWorkload(*serial));
}

// --- IngestBatch vs serial Ingest ----------------------------------------

struct Wire {
  CollectionSpec spec;
  std::vector<CollectionServer::ReportFrame> frames;   // views into storage
  std::vector<std::string> storage;  // includes corrupt/misfit payloads
};

Schema WireSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("age", 54).ok());
  EXPECT_TRUE(schema.AddCategorical("state", 6).ok());
  return schema;
}

/// A batch of 2000 valid frames salted with corrupt bytes, intra-batch
/// duplicates, and structurally-valid-but-misfit reports from an alien spec.
Wire MakeWire() {
  Wire wire;
  MechanismParams params;
  params.epsilon = 2.0;
  wire.spec =
      CollectionSpec::FromSchema(WireSchema(), MechanismKind::kHio, params);
  const LdpClient client = LdpClient::Create(wire.spec).ValueOrDie();

  // Same schema, different mechanism: an SC report carries one entry per
  // dimension where HIO expects a single sampled level, so it unframes and
  // deserializes fine but fails the mechanism's validation.
  const CollectionSpec alien_spec =
      CollectionSpec::FromSchema(WireSchema(), MechanismKind::kSc, params);
  const LdpClient alien_client = LdpClient::Create(alien_spec).ValueOrDie();

  Rng rng(11);
  Rng data_rng(12);
  const uint64_t n = 2000;
  wire.storage.reserve(n + 2);
  std::vector<std::pair<size_t, uint64_t>> plan;  // (storage index, user)
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(54)),
        static_cast<uint32_t>(data_rng.UniformInt(6))};
    wire.storage.push_back(client.EncodeUser(values, rng).ValueOrDie());
    plan.push_back({wire.storage.size() - 1, u});
    if (u % 401 == 7) {
      // Intra-batch duplicate: same user again (first occurrence wins).
      plan.push_back({wire.storage.size() - 1, u});
    }
    if (u % 503 == 11) {
      // Bit-flipped copy under a fresh user id: checksum must catch it.
      std::string bad = wire.storage.back();
      bad[bad.size() / 2] ^= 0x20;
      wire.storage.push_back(std::move(bad));
      plan.push_back({wire.storage.size() - 1, n + u});
    }
    if (u % 701 == 13) {
      // Well-formed frame whose report shape doesn't fit the mechanism:
      // decodes, fails validation, counted as rejected.
      wire.storage.push_back(
          alien_client.EncodeUser(values, rng).ValueOrDie());
      plan.push_back({wire.storage.size() - 1, 2 * n + u});
    }
  }
  // Late retry echoes of early frames: duplicates of users accepted many
  // batches earlier.
  for (const size_t k : {0, 5, 999}) plan.push_back(plan[k]);
  wire.frames.reserve(plan.size());
  for (const auto& [index, user] : plan) {
    wire.frames.push_back(CollectionServer::ReportFrame{wire.storage[index], user});
  }
  return wire;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameOutcome(const CollectionServer& a, const CollectionServer& b,
                       const Wire& wire) {
  EXPECT_EQ(a.ingest_stats().accepted, b.ingest_stats().accepted);
  EXPECT_EQ(a.ingest_stats().duplicate, b.ingest_stats().duplicate);
  EXPECT_EQ(a.ingest_stats().corrupt, b.ingest_stats().corrupt);
  EXPECT_EQ(a.ingest_stats().rejected, b.ingest_stats().rejected);
  EXPECT_EQ(a.num_reports(), b.num_reports());
  for (const CollectionServer::ReportFrame& f : wire.frames) {
    EXPECT_EQ(a.has_report(f.user), b.has_report(f.user)) << "user " << f.user;
  }
  // Per-user weights, so a report credited to the wrong user shows too.
  std::vector<double> weights(3 * 2000);
  for (size_t u = 0; u < weights.size(); ++u) weights[u] = 1.0 + u % 7;
  const WeightVector w(std::move(weights));
  const std::vector<std::vector<Interval>> boxes = {{{10, 40}, {2, 2}},
                                                     {{0, 53}, {0, 5}},
                                                     {{0, 0}, {1, 4}},
                                                     {{27, 53}, {5, 5}}};
  for (size_t i = 0; i < boxes.size(); ++i) {
    const double x = a.EstimateBox(boxes[i], w).ValueOrDie();
    const double y = b.EstimateBox(boxes[i], w).ValueOrDie();
    EXPECT_TRUE(SameBits(x, y)) << "box " << i << ": " << x << " vs " << y;
  }
}

TEST(IngestBatchTest, MatchesSerialIngestWithFaultyFrames) {
  const Wire wire = MakeWire();
  const std::span<const CollectionServer::ReportFrame> frames(wire.frames);

  CollectionServer serial = CollectionServer::Create(wire.spec).ValueOrDie();
  for (const CollectionServer::ReportFrame& f : frames) {
    (void)serial.Ingest(f.bytes, f.user);  // faulty frames return an error
  }
  EXPECT_GT(serial.ingest_stats().duplicate, 0u);
  EXPECT_GT(serial.ingest_stats().corrupt, 0u);
  EXPECT_GT(serial.ingest_stats().rejected, 0u);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CollectionServer batched =
        CollectionServer::Create(wire.spec, threads).ValueOrDie();
    ASSERT_TRUE(batched.IngestBatch(frames).ok());
    ExpectSameOutcome(batched, serial, wire);

    // A server that already holds reports, then the rest of the wire in
    // consecutive 1024-frame batches.
    CollectionServer streamed =
        CollectionServer::Create(wire.spec, threads).ValueOrDie();
    constexpr size_t kHeld = 300;
    for (const CollectionServer::ReportFrame& f : frames.first(kHeld)) {
      (void)streamed.Ingest(f.bytes, f.user);
    }
    ASSERT_GT(streamed.num_reports(), 0u);
    for (size_t begin = kHeld; begin < frames.size(); begin += 1024) {
      const size_t count = std::min<size_t>(1024, frames.size() - begin);
      ASSERT_TRUE(streamed.IngestBatch(frames.subspan(begin, count)).ok());
    }
    ExpectSameOutcome(streamed, serial, wire);
  }
}

TEST(IngestBatchTest, SplitBatchesMatchOneBatch) {
  const Wire wire = MakeWire();
  CollectionServer one = CollectionServer::Create(wire.spec, 4).ValueOrDie();
  ASSERT_TRUE(one.IngestBatch(wire.frames).ok());

  CollectionServer split = CollectionServer::Create(wire.spec, 4).ValueOrDie();
  const size_t cut = wire.frames.size() / 3;
  const std::span<const CollectionServer::ReportFrame> frames(wire.frames);
  ASSERT_TRUE(split.IngestBatch(frames.subspan(0, cut)).ok());
  ASSERT_TRUE(split.IngestBatch(frames.subspan(cut)).ok());
  ExpectSameOutcome(split, one, wire);
}

TEST(IngestBatchTest, EmptyBatchIsANoOp) {
  const CollectionSpec spec = MakeWire().spec;
  CollectionServer server = CollectionServer::Create(spec, 2).ValueOrDie();
  EXPECT_TRUE(server.IngestBatch({}).ok());
  EXPECT_EQ(server.num_reports(), 0u);
}

}  // namespace
}  // namespace ldp
