#ifndef LDPMDA_FO_SIMD_SIMD_H_
#define LDPMDA_FO_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ldp {

/// Instruction-set level of the frequency-oracle estimate kernels.
///
/// One level is active per process (selected once at startup, or forced via
/// EngineOptions::simd_level / the benches' --simd flag). Every level
/// computes bit-identical results: kernels map SIMD *lanes to values*, so
/// within one kernel call each value's floating-point partial sum still
/// accumulates in report order (for raw scans), pool-seed order (pooled OLH
/// histograms), or spectrum order (HR) — exactly the scalar loop's order. No
/// value's sum is ever split across lanes, so there is no lane-merge
/// reduction to reorder. (Splitting a scan into report blocks is the
/// caller's business and happens above this layer, at fixed boundaries.)
///
/// kAuto resolves to the best level the binary and host support, in the
/// order avx512 > avx2 > scalar on x86-64 and neon > scalar on aarch64.
enum class SimdLevel {
  kAuto = 0,    ///< resolve to the best supported level at first use
  kScalar = 1,  ///< portable fallback, always available
  kAvx2 = 2,    ///< x86-64 AVX2 (4 x double lanes)
  kNeon = 3,    ///< aarch64 NEON (2 x double lanes)
  kAvx512 = 4,  ///< x86-64 AVX-512F+DQ (8 x double lanes; OLH entries only,
                ///< the rest are the AVX2 entries)
};

std::string SimdLevelName(SimdLevel level);
Result<SimdLevel> SimdLevelFromString(std::string_view name);

/// The vectorized estimate primitives, one entry per oracle inner loop.
///
/// Contract shared by every implementation (scalar included):
///  * `theta`/`total` are accumulated IN PLACE (callers zero-fill per tile);
///  * per value, floating-point adds happen in the same order as the scalar
///    reference kernel (see SimdLevel) — implementations may vectorize
///    across values only, never across the reduction dimension;
///  * a non-supporting report contributes +0.0 (mask-AND or `w * 0.0`),
///    which cannot change any partial sum's bits (sums never reach -0.0
///    starting from +0.0);
///  * pointers need no particular alignment and value spans may have any
///    length. AVX2 and NEON run the last `num_values % lanes` values with
///    the scalar loop; AVX-512 runs them as one vector step under a lane
///    mask, touching no element past the span, or through the AVX2 kernel
///    when they are too few to fill a step profitably.
struct FoKernels {
  SimdLevel level = SimdLevel::kScalar;

  /// OLH raw scan: for each report i (in order) and each value v,
  ///   theta[v] += weights[users[i]] * (H_{seeds[i]}(values[v]) == ys[i]).
  /// `weights == nullptr` means every weight is 1.0: the kernel reads
  /// neither `weights` nor `users`, and the result is bit-identical to an
  /// explicit all-ones array. The accumulator calls it once per fixed
  /// kEstimateReportBlock-report block (frequency_oracle.h) and sums the
  /// blocks' partials in block order, so a span passed here is one block.
  void (*olh_raw)(const uint32_t* seeds, const uint32_t* ys,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, uint32_t g, const uint64_t* values,
                  size_t num_values, double* theta);

  /// OLH pooled histogram gather-sum: for each seed s in [0, pool) (in
  /// order) and each value v,  theta[v] += hist[s * g + H_s(values[v])].
  void (*olh_hist)(const double* hist, uint32_t pool, uint32_t g,
                   const uint64_t* values, size_t num_values, double* theta);

  /// GRR equality-count scan: for each report i (in order),
  ///   *group_weight += weights[users[i]]  and for each value v
  ///   theta[v] += weights[users[i]] *
  ///               (report_values[i] == uint32(values[v])).
  void (*grr_raw)(const uint32_t* report_values, const uint64_t* users,
                  size_t num_reports, const double* weights,
                  const uint64_t* values, size_t num_values, double* theta,
                  double* group_weight);

  /// OUE bit-matrix scan over row-major bit vectors (`words_per_report`
  /// 64-bit words per report): for each report i (in order) and value v,
  ///   theta[v] += weights[users[i]] * bit(bits + i * words_per_report, v).
  void (*oue_raw)(const uint64_t* bits, size_t words_per_report,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, const uint64_t* values,
                  size_t num_values, double* theta);

  /// HR spectrum dot product: for each spectrum entry e (in order) and each
  /// value v,  total[v] += sums[e] * (parity(indices[e] & values[v]) ? -1
  /// : +1)  — the Walsh-Hadamard entry as an exact sign flip.
  void (*hr_spectrum)(const uint64_t* indices, const double* sums,
                      size_t num_entries, const uint64_t* values,
                      size_t num_values, double* total);
};

/// Highest level this binary + host supports (kScalar when vector kernels
/// were compiled out, e.g. the check-all-simd-off preset).
SimdLevel DetectSimdLevel();

/// Whether `level` can run on this binary + host. kAuto and kScalar are
/// always supported.
bool SimdLevelSupported(SimdLevel level);

/// Every concrete level this binary + host can run (never kAuto), narrowest
/// first: kScalar, then neon or avx2, then avx512. The last entry is
/// DetectSimdLevel(). Tests and benches sweep it, so they cover each
/// compiled-in vector level the host has and degenerate to {kScalar} on
/// scalar-only builds.
std::vector<SimdLevel> SupportedSimdLevels();

/// The kernel table for `level` (kAuto resolves to DetectSimdLevel()).
/// LDP_CHECK-fatal when the level is unsupported on this host — a forced
/// --simd level must never silently fall back, or benchmarks and
/// reproductions would measure a different kernel than requested.
const FoKernels& KernelsForLevel(SimdLevel level);

/// The process-wide active kernel table. Resolved to DetectSimdLevel() on
/// first use; SetSimdLevel overrides it. Reads are lock-free (one acquire
/// load) — this sits on every estimate path.
const FoKernels& ActiveKernels();

/// Forces the active level (kAuto re-resolves to the detected best).
/// LDP_CHECK-fatal when unsupported on this host. Also mirrors the level
/// into the `simd.active_level` gauge for --stats_json consumers.
void SetSimdLevel(SimdLevel level);

/// Level of the currently active kernel table (resolves kAuto on first use).
SimdLevel ActiveSimdLevel();

}  // namespace ldp

#endif  // LDPMDA_FO_SIMD_SIMD_H_
