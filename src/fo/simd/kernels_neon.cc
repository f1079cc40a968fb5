// NEON kernels: 2 x double lanes, lane = value — the same lane-per-value
// contract as the AVX2 TU, so each value's partial sum sees exactly the
// scalar kernel's sequence of adds. The integer lane setup (hashing, bit
// probes, parity) is computed per lane with the scalar helpers — on aarch64
// the 64-bit scalar multiply pipeline is as wide as the vector one, so the
// win comes from the vectorized masked FP accumulation, which is also the
// only part with bit-exactness risk. Compiled with -ffp-contract=off: a
// fused multiply-add would round differently from the scalar kernels.

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

inline uint64x2_t MaskPair(bool lane0, bool lane1) {
  return vcombine_u64(vcreate_u64(lane0 ? ~0ull : 0ull),
                      vcreate_u64(lane1 ? ~0ull : 0ull));
}

/// theta[vi..vi+2) += mask ? weight : +0.0 (mask-AND, bit-identical to the
/// scalar branchless weight * bool form).
inline void AccumulateMasked(double* theta, uint64x2_t mask,
                             float64x2_t weight) {
  const float64x2_t contribution =
      vreinterpretq_f64_u64(vandq_u64(mask, vreinterpretq_u64_f64(weight)));
  vst1q_f64(theta, vaddq_f64(vld1q_f64(theta), contribution));
}

void OlhRawNeon(const uint32_t* seeds, const uint32_t* ys,
                const uint64_t* users, size_t num_reports,
                const double* weights, uint32_t g, const uint64_t* values,
                size_t num_values, double* theta) {
  const size_t nv2 = num_values & ~static_cast<size_t>(1);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
    const uint32_t y = ys[i];
    const double weight = weights == nullptr ? 1.0 : weights[users[i]];
    const float64x2_t w_v = vdupq_n_f64(weight);
    size_t vi = 0;
    for (; vi < nv2; vi += 2) {
      const uint64x2_t mask = MaskPair(
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y,
          SeededHashFamily::EvalWithBase(base, values[vi + 1], g) == y);
      AccumulateMasked(theta + vi, mask, w_v);
    }
    for (; vi < num_values; ++vi) {
      const double supports = static_cast<double>(
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y);
      theta[vi] += weight * supports;
    }
  }
}

void OlhHistNeon(const double* hist, uint32_t pool, uint32_t g,
                 const uint64_t* values, size_t num_values, double* theta) {
  const size_t nv2 = num_values & ~static_cast<size_t>(1);
  for (uint32_t s = 0; s < pool; ++s) {
    const uint64_t base = SeededHashFamily::SeedBase(s);
    const double* row = hist + static_cast<size_t>(s) * g;
    size_t vi = 0;
    for (; vi < nv2; vi += 2) {
      const float64x2_t cell = vcombine_f64(
          vld1_f64(row + SeededHashFamily::EvalWithBase(base, values[vi], g)),
          vld1_f64(row +
                   SeededHashFamily::EvalWithBase(base, values[vi + 1], g)));
      vst1q_f64(theta + vi, vaddq_f64(vld1q_f64(theta + vi), cell));
    }
    for (; vi < num_values; ++vi) {
      theta[vi] += row[SeededHashFamily::EvalWithBase(base, values[vi], g)];
    }
  }
}

void GrrRawNeon(const uint32_t* report_values, const uint64_t* users,
                size_t num_reports, const double* weights,
                const uint64_t* values, size_t num_values, double* theta,
                double* group_weight) {
  const size_t nv2 = num_values & ~static_cast<size_t>(1);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint32_t rv = report_values[i];
    const double weight = weights[users[i]];
    *group_weight += weight;
    const float64x2_t w_v = vdupq_n_f64(weight);
    size_t vi = 0;
    for (; vi < nv2; vi += 2) {
      const uint64x2_t mask =
          MaskPair(rv == static_cast<uint32_t>(values[vi]),
                   rv == static_cast<uint32_t>(values[vi + 1]));
      AccumulateMasked(theta + vi, mask, w_v);
    }
    for (; vi < num_values; ++vi) {
      const double matches =
          static_cast<double>(rv == static_cast<uint32_t>(values[vi]));
      theta[vi] += weight * matches;
    }
  }
}

void OueRawNeon(const uint64_t* bits, size_t words_per_report,
                const uint64_t* users, size_t num_reports,
                const double* weights, const uint64_t* values,
                size_t num_values, double* theta) {
  const size_t nv2 = num_values & ~static_cast<size_t>(1);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t* row = bits + i * words_per_report;
    const double weight = weights[users[i]];
    const float64x2_t w_v = vdupq_n_f64(weight);
    size_t vi = 0;
    for (; vi < nv2; vi += 2) {
      const uint64_t v0 = values[vi];
      const uint64_t v1 = values[vi + 1];
      const uint64x2_t mask = MaskPair((row[v0 / 64] >> (v0 % 64)) & 1ull,
                                       (row[v1 / 64] >> (v1 % 64)) & 1ull);
      AccumulateMasked(theta + vi, mask, w_v);
    }
    for (; vi < num_values; ++vi) {
      const uint64_t v = values[vi];
      const double set =
          static_cast<double>((row[v / 64] >> (v % 64)) & 1ull);
      theta[vi] += weight * set;
    }
  }
}

void HrSpectrumNeon(const uint64_t* indices, const double* sums,
                    size_t num_entries, const uint64_t* values,
                    size_t num_values, double* total) {
  const size_t nv2 = num_values & ~static_cast<size_t>(1);
  for (size_t e = 0; e < num_entries; ++e) {
    const uint64_t j = indices[e];
    const double sum = sums[e];
    const float64x2_t sum_v = vdupq_n_f64(sum);
    size_t vi = 0;
    for (; vi < nv2; vi += 2) {
      // Odd parity means Entry = -1; multiplying a finite double by -1.0 is
      // exactly a sign-bit flip, so XOR the parity into the sign bit.
      const uint64x2_t sign = vcombine_u64(
          vcreate_u64(static_cast<uint64_t>(__builtin_popcountll(
                          j & values[vi]) & 1)
                      << 63),
          vcreate_u64(static_cast<uint64_t>(__builtin_popcountll(
                          j & values[vi + 1]) & 1)
                      << 63));
      const float64x2_t contribution = vreinterpretq_f64_u64(
          veorq_u64(vreinterpretq_u64_f64(sum_v), sign));
      vst1q_f64(total + vi, vaddq_f64(vld1q_f64(total + vi), contribution));
    }
    for (; vi < num_values; ++vi) {
      const int entry = (__builtin_popcountll(j & values[vi]) & 1) ? -1 : 1;
      total[vi] += sum * entry;
    }
  }
}

}  // namespace

const FoKernels& NeonFoKernels() {
  static const FoKernels kernels = {
      SimdLevel::kNeon, &OlhRawNeon, &OlhHistNeon,
      &GrrRawNeon,      &OueRawNeon, &HrSpectrumNeon,
  };
  return kernels;
}

}  // namespace ldp
