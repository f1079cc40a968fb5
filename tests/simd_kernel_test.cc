// SIMD kernel layer (src/fo/simd/): every vector level this binary + host
// supports must be bit-identical to the scalar reference kernels —
//  * at the kernel-table level, fuzzing each FoKernels entry over random
//    inputs, tile remainders around the lane widths (1, lane-1, lane,
//    lane+1), and misaligned value/output spans,
//  * at the accumulator level (EstimateManyWeighted under SetSimdLevel),
//  * at the engine level across thread counts and cache states,
// plus the level-name surface (SimdLevelFromString/SimdLevelName) and the
// LDP_CHECK-fatal path for a forced level the host cannot run.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "fo/grr.h"
#include "fo/hadamard.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

void ExpectBitEqual(double a, double b, const std::string& what) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

/// Every concrete level this binary + host cannot run. AVX2/AVX-512 and
/// NEON are mutually exclusive (x86-64 vs aarch64), so at least one always
/// exists; on scalar-only builds (check-all-simd-off) all three do.
std::vector<SimdLevel> UnsupportedLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kAvx2, SimdLevel::kNeon, SimdLevel::kAvx512}) {
    if (!SimdLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

/// Value counts covering the remainder cases around every lane width
/// (NEON: 2, AVX2: 4, AVX-512: 8): 1, lane-1, lane, lane+1, the same
/// around two AVX-512 chunks (15, 16, 17), and a longer mixed run.
const size_t kValueCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 37};
/// Element offsets into over-allocated buffers: offset 0 may be 32-byte
/// aligned, the others force 8/16/24-byte misalignment of values AND theta.
const size_t kOffsets[] = {0, 1, 2, 3};

struct FuzzCase {
  uint32_t g = 8;
  uint32_t pool = 64;
  size_t words_per_report = 4;
  std::vector<uint32_t> seeds, ys, grr_reports;
  std::vector<uint64_t> users, oue_bits, hr_indices, values;
  std::vector<double> weights, hist, hr_sums;
};

FuzzCase MakeCase(Rng& rng, size_t num_reports, size_t max_values) {
  FuzzCase c;
  c.g = 2 + static_cast<uint32_t>(rng.UniformInt(15));
  c.pool = 1 + static_cast<uint32_t>(rng.UniformInt(97));
  c.words_per_report = 1 + rng.UniformInt(4);
  const uint64_t domain = c.words_per_report * 64;
  c.seeds.resize(num_reports);
  c.ys.resize(num_reports);
  c.grr_reports.resize(num_reports);
  c.users.resize(num_reports);
  c.weights.resize(num_reports);
  c.oue_bits.resize(num_reports * c.words_per_report);
  for (size_t i = 0; i < num_reports; ++i) {
    c.seeds[i] = static_cast<uint32_t>(rng());
    c.ys[i] = static_cast<uint32_t>(rng.UniformInt(c.g));
    c.grr_reports[i] = static_cast<uint32_t>(rng.UniformInt(domain));
    c.users[i] = i;
    // Mixed signs and exact zeros: the weights every batched fan-out feeds.
    c.weights[i] = 0.25 * static_cast<double>(rng.UniformInt(9)) - 1.0;
  }
  Shuffle(c.users, rng);  // exercise the weight gathers out of row order
  c.hist.resize(static_cast<size_t>(c.pool) * c.g);
  for (double& h : c.hist) h = rng.UniformDouble() - 0.5;
  const size_t entries = 16 + rng.UniformInt(100);
  c.hr_indices.resize(entries);
  c.hr_sums.resize(entries);
  for (size_t e = 0; e < entries; ++e) {
    c.hr_indices[e] = rng();
    c.hr_sums[e] = rng.UniformDouble() - 0.5;
  }
  // Over-allocate so callers can offset the span start; include values with
  // high 32 bits set (GRR must truncate them exactly like the scalar loop).
  c.values.resize(max_values + 8);
  for (size_t v = 0; v < c.values.size(); ++v) {
    c.values[v] = rng.UniformInt(domain);
    if (rng.Bernoulli(0.25)) c.values[v] |= rng() << 32;
  }
  return c;
}

/// Runs one kernel entry of `level` against the scalar table on the same
/// inputs for every value-count / offset combination and compares bitwise.
void FuzzKernelsAgainstScalar(SimdLevel level, uint64_t seed) {
  const FoKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  const FoKernels& vec = KernelsForLevel(level);
  Rng rng(seed);
  const size_t kMaxValues = 37;
  const FuzzCase c = MakeCase(rng, /*num_reports=*/300, kMaxValues);
  const size_t n = c.seeds.size();
  for (const size_t num_values : kValueCounts) {
    for (const size_t off : kOffsets) {
      const uint64_t* values = c.values.data() + off;
      const std::string what = SimdLevelName(level) + " nv=" +
                               std::to_string(num_values) + " off=" +
                               std::to_string(off);
      // Output buffers are offset too, and accumulation starts from zero
      // (the contract: callers zero-fill each tile).
      std::vector<double> a(num_values + 8, 0.0);
      std::vector<double> b(num_values + 8, 0.0);

      scalar.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                     c.weights.data(), c.g, values, num_values,
                     a.data() + off);
      vec.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                  c.weights.data(), c.g, values, num_values, b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "olh_raw " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      scalar.olh_hist(c.hist.data(), c.pool, c.g, values, num_values,
                      a.data() + off);
      vec.olh_hist(c.hist.data(), c.pool, c.g, values, num_values,
                   b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "olh_hist " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      double gw_a = 0.0;
      double gw_b = 0.0;
      scalar.grr_raw(c.grr_reports.data(), c.users.data(), n,
                     c.weights.data(), values, num_values, a.data() + off,
                     &gw_a);
      vec.grr_raw(c.grr_reports.data(), c.users.data(), n, c.weights.data(),
                  values, num_values, b.data() + off, &gw_b);
      ExpectBitEqual(gw_b, gw_a, "grr group_weight " + what);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "grr_raw " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      // OUE bit positions must be in range; mask the fuzzed values.
      std::vector<uint64_t> bit_values(values, values + num_values);
      for (uint64_t& v : bit_values) v %= c.words_per_report * 64;
      scalar.oue_raw(c.oue_bits.data(), c.words_per_report, c.users.data(),
                     n, c.weights.data(), bit_values.data(), num_values,
                     a.data() + off);
      vec.oue_raw(c.oue_bits.data(), c.words_per_report, c.users.data(), n,
                  c.weights.data(), bit_values.data(), num_values,
                  b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "oue_raw " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      scalar.hr_spectrum(c.hr_indices.data(), c.hr_sums.data(),
                         c.hr_indices.size(), values, num_values,
                         a.data() + off);
      vec.hr_spectrum(c.hr_indices.data(), c.hr_sums.data(),
                      c.hr_indices.size(), values, num_values,
                      b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "hr_spectrum " + what);
      }
    }
  }
}

TEST(SimdKernelFuzzTest, AllLevelsMatchScalarBitwise) {
  for (const SimdLevel level : SupportedSimdLevels()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      FuzzKernelsAgainstScalar(level, seed);
    }
  }
}

TEST(SimdKernelFuzzTest, OlhRawNullWeightsMatchExplicitOnes) {
  // weights == nullptr means "every weight is 1.0" (the all-ones COUNT
  // scan): it must give the bits of an explicit ones array at every level.
  for (const SimdLevel level : SupportedSimdLevels()) {
    const FoKernels& kernels = KernelsForLevel(level);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const FuzzCase c = MakeCase(rng, /*num_reports=*/300, /*max_values=*/37);
      const size_t n = c.seeds.size();
      const std::vector<double> ones(n, 1.0);
      for (const size_t num_values : kValueCounts) {
        for (const size_t off : kOffsets) {
          const uint64_t* values = c.values.data() + off;
          std::vector<double> a(num_values + 8, 0.0);
          std::vector<double> b(num_values + 8, 0.0);
          kernels.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                          ones.data(), c.g, values, num_values,
                          a.data() + off);
          kernels.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                          nullptr, c.g, values, num_values, b.data() + off);
          for (size_t v = 0; v < num_values; ++v) {
            ExpectBitEqual(b[off + v], a[off + v],
                           "olh_raw nullptr weights " + SimdLevelName(level) +
                               " nv=" + std::to_string(num_values) +
                               " off=" + std::to_string(off));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Accumulator level: EstimateManyWeighted under a forced level must match
// the scalar-forced run bitwise for every oracle, tiling, and span offset.

WeightVector MixedWeights(uint64_t n) {
  std::vector<double> w(n);
  for (uint64_t i = 0; i < n; ++i) {
    w[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  return WeightVector(std::move(w));
}

template <typename Protocol, typename Accumulator>
void CheckAccumulatorBitIdenticalAcrossLevels(const Protocol& proto,
                                              uint64_t n, uint64_t domain) {
  const WeightVector w = MixedWeights(n);
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < domain; ++v) values.push_back(v);

  // Scalar reference on a fresh accumulator.
  std::vector<double> reference(values.size());
  {
    SetSimdLevel(SimdLevel::kScalar);
    Accumulator acc(proto);
    Rng rng(17);
    for (uint64_t u = 0; u < n; ++u) {
      acc.Add(proto.Encode((u * 13) % domain, rng), u);
    }
    acc.EstimateManyWeighted(values, w, reference);
  }
  for (const SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevel(level);
    Accumulator acc(proto);
    Rng rng(17);
    for (uint64_t u = 0; u < n; ++u) {
      acc.Add(proto.Encode((u * 13) % domain, rng), u);
    }
    // Tilings around every lane width, with off-by-`tile` span starts (the
    // second tile of an odd tiling starts misaligned).
    for (const size_t tile : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                              size_t{7}, size_t{8}, size_t{9}}) {
      std::vector<double> out(values.size(), -1.0);
      for (size_t v0 = 0; v0 < values.size(); v0 += tile) {
        const size_t len = std::min(tile, values.size() - v0);
        acc.EstimateManyWeighted(
            std::span<const uint64_t>(values.data() + v0, len), w,
            std::span<double>(out.data() + v0, len));
      }
      for (size_t i = 0; i < values.size(); ++i) {
        ExpectBitEqual(out[i], reference[i],
                       SimdLevelName(level) + " tile " +
                           std::to_string(tile) + " value " +
                           std::to_string(values[i]));
      }
    }
  }
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(SimdAccumulatorTest, OlhUnpooledBitIdentical) {
  const OlhProtocol proto(1.0, 24, 0);
  CheckAccumulatorBitIdenticalAcrossLevels<OlhProtocol, OlhAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, OlhPooledBitIdentical) {
  const OlhProtocol proto(1.0, 24, 32);
  CheckAccumulatorBitIdenticalAcrossLevels<OlhProtocol, OlhAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, GrrBitIdentical) {
  const GrrProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<GrrProtocol, GrrAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, OueBitIdentical) {
  const OueProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<OueProtocol, OueAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, HadamardBitIdentical) {
  const HadamardProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<HadamardProtocol,
                                           HadamardAccumulator>(proto, 500,
                                                                24);
}

// ---------------------------------------------------------------------------
// Engine level: forced levels x thread counts x cache states must answer
// bit-identically (the ISSUE's acceptance matrix).

Table TwoDimTable(uint64_t n = 2000) {
  TableSpec spec;
  spec.dims.push_back({"a", AttributeKind::kSensitiveOrdinal, 16,
                       ColumnDist::kGaussianBell, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.measures.push_back(
      {"m", 0.0, 10.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 99).ValueOrDie();
}

TEST(SimdEngineTest, BitIdenticalAcrossLevelsThreadsAndCache) {
  const Table table = TwoDimTable();
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND "
      "13",
      "SELECT SUM(m) FROM T WHERE a BETWEEN 0 AND 7 AND b BETWEEN 4 AND 15"};
  auto make_engine = [&](SimdLevel level, int threads, bool cache) {
    EngineOptions options;
    options.mechanism = MechanismKind::kHio;
    options.params.epsilon = 2.0;
    options.params.fanout = 2;
    options.seed = 4242;
    options.num_threads = threads;
    options.enable_estimate_cache = cache;
    options.simd_level = level;
    return AnalyticsEngine::Create(table, options).ValueOrDie();
  };
  std::vector<double> reference;
  {
    auto engine = make_engine(SimdLevel::kScalar, 1, false);
    for (const auto& sql : sqls) {
      reference.push_back(engine->ExecuteSql(sql).ValueOrDie());
    }
  }
  for (const SimdLevel level : SupportedSimdLevels()) {
    for (const int threads : {1, 2, 8}) {
      for (const bool cache : {false, true}) {
        auto engine = make_engine(level, threads, cache);
        for (size_t q = 0; q < sqls.size(); ++q) {
          ExpectBitEqual(engine->ExecuteSql(sqls[q]).ValueOrDie(),
                         reference[q],
                         SimdLevelName(level) + " threads " +
                             std::to_string(threads) +
                             (cache ? " cache" : " no-cache") + " query " +
                             std::to_string(q));
        }
      }
    }
  }
  SetSimdLevel(SimdLevel::kAuto);
}

// ---------------------------------------------------------------------------
// Level-name surface and dispatch plumbing.

TEST(SimdLevelTest, NamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kAvx2,
        SimdLevel::kNeon, SimdLevel::kAvx512}) {
    const auto parsed = SimdLevelFromString(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok()) << SimdLevelName(level);
    EXPECT_EQ(parsed.value(), level);
  }
  EXPECT_EQ(SimdLevelFromString("AVX2").ValueOrDie(), SimdLevel::kAvx2);
  EXPECT_EQ(SimdLevelFromString("AVX512").ValueOrDie(), SimdLevel::kAvx512);
  EXPECT_FALSE(SimdLevelFromString("sse9").ok());
  EXPECT_FALSE(SimdLevelFromString("").ok());
}

TEST(SimdLevelTest, DetectAndAutoAgree) {
  const SimdLevel best = DetectSimdLevel();
  EXPECT_TRUE(SimdLevelSupported(best));
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kAuto));
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kScalar));
  EXPECT_EQ(KernelsForLevel(SimdLevel::kAuto).level, best);
  // Auto picks the widest supported level (avx512 over avx2 over scalar).
  EXPECT_EQ(SupportedSimdLevels().front(), SimdLevel::kScalar);
  if (SimdLevelSupported(SimdLevel::kAvx512)) {
    EXPECT_EQ(best, SimdLevel::kAvx512);
  } else if (SimdLevelSupported(SimdLevel::kAvx2)) {
    EXPECT_EQ(best, SimdLevel::kAvx2);
  }
  SetSimdLevel(SimdLevel::kAuto);
  EXPECT_EQ(ActiveSimdLevel(), best);
  EXPECT_EQ(ActiveKernels().level, best);
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(SimdLevelDeathTest, ForcingUnsupportedLevelIsFatal) {
  // A forced level the host cannot run must die loudly (LDP_CHECK), never
  // silently fall back — a benchmark recorded under the wrong kernels would
  // be worse than no benchmark. On a scalar-only build this covers avx2,
  // avx512 and neon.
  const std::vector<SimdLevel> unsupported = UnsupportedLevels();
  ASSERT_FALSE(unsupported.empty()) << "no unsupported level on this host?";
  for (const SimdLevel level : unsupported) {
    SCOPED_TRACE(SimdLevelName(level));
    EXPECT_DEATH({ SetSimdLevel(level); }, "simd_level_supported_on_host");
    EXPECT_DEATH({ (void)KernelsForLevel(level); },
                 "simd_level_supported_on_host");
  }
}

}  // namespace
}  // namespace ldp
