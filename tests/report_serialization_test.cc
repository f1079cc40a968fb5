#include <gtest/gtest.h>

#include "engine/protocol.h"
#include "mech/factory.h"

namespace ldp {
namespace {

LdpReport SampleReport() {
  LdpReport report;
  report.entries.push_back({3, {7, 2, {}}});
  report.entries.push_back({0, {0xffffffff, 0, {}}});
  FoReport with_bits;
  with_bits.seed = 1;
  with_bits.value = 9;
  with_bits.bits = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  report.entries.push_back({42, with_bits});
  return report;
}

TEST(ReportSerializationTest, RoundTrip) {
  const LdpReport report = SampleReport();
  const std::string bytes = report.Serialize();
  const LdpReport back = LdpReport::Deserialize(bytes).ValueOrDie();
  EXPECT_TRUE(back == report);
}

TEST(ReportSerializationTest, EmptyReport) {
  const LdpReport empty;
  const std::string bytes = empty.Serialize();
  EXPECT_EQ(bytes.size(), 4u);
  const LdpReport back = LdpReport::Deserialize(bytes).ValueOrDie();
  EXPECT_TRUE(back == empty);
}

TEST(ReportSerializationTest, SizeMatchesFormat) {
  const LdpReport report = SampleReport();
  // 4 header + 3 entries * 16 + 2 bit words * 8.
  EXPECT_EQ(report.Serialize().size(), 4u + 3 * 16 + 2 * 8);
}

TEST(ReportSerializationTest, RejectsTruncation) {
  const std::string bytes = SampleReport().Serialize();
  for (const size_t cut : {0ul, 3ul, 5ul, bytes.size() - 1}) {
    const auto r = LdpReport::Deserialize(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(ReportSerializationTest, RejectsTrailingGarbage) {
  std::string bytes = SampleReport().Serialize();
  bytes += 'x';
  EXPECT_FALSE(LdpReport::Deserialize(bytes).ok());
}

TEST(ReportSerializationTest, RejectsImplausibleCounts) {
  std::string bytes(4, '\xff');  // entry count ~4 billion
  EXPECT_FALSE(LdpReport::Deserialize(bytes).ok());

  // A count under the 2^24 cap that the payload cannot hold (each entry
  // encodes at least 16 bytes) is rejected before anything is allocated.
  for (const uint32_t count : {uint32_t{1} << 24, uint32_t{2}}) {
    std::string payload;
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<char>((count >> (8 * i)) & 0xff));
    }
    payload.append(16, '\0');  // room for exactly one entry
    const auto r = LdpReport::Deserialize(payload);
    ASSERT_FALSE(r.ok()) << "count " << count;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("implausible"), std::string::npos)
        << r.status().message();
  }
}

// Round-trip fuzz loop (seeded for reproducibility): random valid reports
// survive serialize → corrupt-one-byte → parse with a typed rejection,
// never a crash. The framed format's checksum guarantees any single-byte
// flip anywhere in the frame is detected; truncations at every depth are
// rejected by the length prefix or the header check.
TEST(ReportSerializationTest, FramedCorruptionFuzzRejectsEveryFlip) {
  Rng rng(20240806);
  for (int iter = 0; iter < 300; ++iter) {
    LdpReport report;
    const int entries = static_cast<int>(rng.UniformInt(5));
    for (int e = 0; e < entries; ++e) {
      LdpReport::Entry entry;
      entry.group = static_cast<uint32_t>(rng());
      entry.fo.seed = static_cast<uint32_t>(rng());
      entry.fo.value = static_cast<uint32_t>(rng());
      const int words = static_cast<int>(rng.UniformInt(4));
      for (int w = 0; w < words; ++w) entry.fo.bits.push_back(rng());
      report.entries.push_back(std::move(entry));
    }
    const std::string payload = report.Serialize();
    // The unframed payload itself must always round-trip.
    ASSERT_TRUE(LdpReport::Deserialize(payload).ValueOrDie() == report);

    const std::string frame = FrameReport(payload);
    ASSERT_TRUE(LdpReport::Deserialize(UnframeReport(frame).ValueOrDie())
                    .ValueOrDie() == report);
    // One random byte flipped anywhere in the frame: typed rejection.
    std::string flipped = frame;
    const size_t pos = rng.UniformInt(flipped.size());
    flipped[pos] ^= static_cast<char>(1 + rng.UniformInt(255));
    const auto r = UnframeReport(flipped);
    ASSERT_FALSE(r.ok()) << "iter " << iter << " flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    // A random truncation: also a typed rejection.
    const auto t = UnframeReport(
        std::string_view(frame).substr(0, rng.UniformInt(frame.size())));
    ASSERT_FALSE(t.ok()) << "iter " << iter;
    EXPECT_EQ(t.status().code(), StatusCode::kParseError);
  }
}

// End-to-end: a wire round trip between encode and ingest leaves every
// mechanism's estimates unchanged.
TEST(ReportSerializationTest, WireRoundTripPreservesEstimates) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("x", 16).ok());
  ASSERT_TRUE(schema.AddOrdinal("y", 16).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  MechanismParams params;
  params.epsilon = 2.0;
  for (const MechanismKind kind :
       {MechanismKind::kHi, MechanismKind::kHio, MechanismKind::kSc,
        MechanismKind::kMg, MechanismKind::kQuadTree}) {
    auto direct = CreateMechanism(kind, schema, params).ValueOrDie();
    auto via_wire = CreateMechanism(kind, schema, params).ValueOrDie();
    Rng rng(11);
    for (uint64_t u = 0; u < 300; ++u) {
      const std::vector<uint32_t> values = {
          static_cast<uint32_t>(u % 16), static_cast<uint32_t>((u / 3) % 16)};
      const LdpReport report = direct->EncodeUser(values, rng);
      ASSERT_TRUE(direct->AddReport(report, u).ok());
      const LdpReport decoded =
          LdpReport::Deserialize(report.Serialize()).ValueOrDie();
      ASSERT_TRUE(via_wire->AddReport(decoded, u).ok());
    }
    const WeightVector w = WeightVector::Ones(300);
    const std::vector<Interval> ranges = {{2, 11}, {4, 13}};
    EXPECT_DOUBLE_EQ(direct->EstimateBox(ranges, w).ValueOrDie(),
                     via_wire->EstimateBox(ranges, w).ValueOrDie())
        << MechanismKindName(kind);
  }
}

}  // namespace
}  // namespace ldp
