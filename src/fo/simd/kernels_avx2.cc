// AVX2 kernels: 4 x double lanes, lane = value. Each value owns one lane for
// the whole reduction, so its partial sum sees exactly the scalar kernel's
// sequence of adds — the vector width changes which VALUES advance together,
// never the order within one value's sum. Non-supporting reports contribute
// via mask-AND (+0.0), matching the scalar branchless form bit-for-bit.
//
// This TU is compiled with -mavx2 -ffp-contract=off and must not be entered
// unless __builtin_cpu_supports("avx2") — dispatch.cc guarantees that. No
// FMA: a fused multiply-add would round differently from the scalar kernels.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

/// Lane-wise 64-bit multiply-low (AVX2 has no native epi64 mullo):
/// a*b mod 2^64 = lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

/// Lane-wise Mix64 (common/hash.h), same xor-shift-multiply chain.
inline __m256i Mix64V(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = MulLo64(x, _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = MulLo64(x, _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
  return x;
}

/// Lane-wise (h * g) >> 64 for g < 2^32 (the multiply-shift bucket reduction
/// in SeededHashFamily::EvalWithBase). With h = h_hi 2^32 + h_lo:
/// (h g) >> 64 = (h_hi g + ((h_lo g) >> 32)) >> 32, and h_hi g + 2^32 < 2^64
/// so the 64-bit lane add cannot overflow.
inline __m256i MulHi64By32(__m256i h, __m256i g) {
  const __m256i h_hi = _mm256_srli_epi64(h, 32);
  const __m256i lo_prod_hi = _mm256_srli_epi64(_mm256_mul_epu32(h, g), 32);
  return _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(h_hi, g), lo_prod_hi), 32);
}

/// Lane-wise EvalWithBase: bucket_v = ((Mix64(base + v)) * g) >> 64.
inline __m256i EvalWithBaseV(__m256i base, __m256i v, __m256i g) {
  return MulHi64By32(Mix64V(_mm256_add_epi64(base, v)), g);
}

/// Per-64-bit-lane popcount: nibble LUT via pshufb, then psadbw folds the
/// 8 byte counts of each lane into its low byte.
inline __m256i Popcount64V(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(x, 4), low_nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// theta[vi..vi+4) += contribution (unaligned load/add/store).
inline void AccumulatePd(double* theta, __m256d contribution) {
  _mm256_storeu_pd(theta,
                   _mm256_add_pd(_mm256_loadu_pd(theta), contribution));
}

void OlhRawAvx2(const uint32_t* seeds, const uint32_t* ys,
                const uint64_t* users, size_t num_reports,
                const double* weights, uint32_t g, const uint64_t* values,
                size_t num_values, double* theta) {
  const __m256i g_v = _mm256_set1_epi64x(static_cast<long long>(g));
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
    const uint32_t y = ys[i];
    const double weight = weights == nullptr ? 1.0 : weights[users[i]];
    const __m256i base_v = _mm256_set1_epi64x(static_cast<long long>(base));
    const __m256i y_v = _mm256_set1_epi64x(static_cast<long long>(y));
    const __m256d w_v = _mm256_set1_pd(weight);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i eq = _mm256_cmpeq_epi64(EvalWithBaseV(base_v, v, g_v), y_v);
      AccumulatePd(theta + vi, _mm256_and_pd(_mm256_castsi256_pd(eq), w_v));
    }
    for (; vi < num_values; ++vi) {
      const double supports = static_cast<double>(
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y);
      theta[vi] += weight * supports;
    }
  }
}

void OlhHistAvx2(const double* hist, uint32_t pool, uint32_t g,
                 const uint64_t* values, size_t num_values, double* theta) {
  const __m256i g_v = _mm256_set1_epi64x(static_cast<long long>(g));
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (uint32_t s = 0; s < pool; ++s) {
    const uint64_t base = SeededHashFamily::SeedBase(s);
    const __m256i base_v = _mm256_set1_epi64x(static_cast<long long>(base));
    const double* row = hist + static_cast<size_t>(s) * g;
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256d cell =
          _mm256_i64gather_pd(row, EvalWithBaseV(base_v, v, g_v), 8);
      AccumulatePd(theta + vi, cell);
    }
    for (; vi < num_values; ++vi) {
      theta[vi] += row[SeededHashFamily::EvalWithBase(base, values[vi], g)];
    }
  }
}

void GrrRawAvx2(const uint32_t* report_values, const uint64_t* users,
                size_t num_reports, const double* weights,
                const uint64_t* values, size_t num_values, double* theta,
                double* group_weight) {
  // Same uint32 truncation of query values as the scalar kernel and the
  // histogram probe path.
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint32_t rv = report_values[i];
    const double weight = weights[users[i]];
    *group_weight += weight;
    const __m256i rv_v = _mm256_set1_epi64x(static_cast<long long>(rv));
    const __m256d w_v = _mm256_set1_pd(weight);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + vi)),
          lo32);
      const __m256i eq = _mm256_cmpeq_epi64(v, rv_v);
      AccumulatePd(theta + vi, _mm256_and_pd(_mm256_castsi256_pd(eq), w_v));
    }
    for (; vi < num_values; ++vi) {
      const double matches =
          static_cast<double>(rv == static_cast<uint32_t>(values[vi]));
      theta[vi] += weight * matches;
    }
  }
}

void OueRawAvx2(const uint64_t* bits, size_t words_per_report,
                const uint64_t* users, size_t num_reports,
                const double* weights, const uint64_t* values,
                size_t num_values, double* theta) {
  const __m256i one_v = _mm256_set1_epi64x(1);
  const __m256i six_three = _mm256_set1_epi64x(63);
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t* row = bits + i * words_per_report;
    const double weight = weights[users[i]];
    const __m256d w_v = _mm256_set1_pd(weight);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i words = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(row), _mm256_srli_epi64(v, 6), 8);
      const __m256i bit = _mm256_and_si256(
          _mm256_srlv_epi64(words, _mm256_and_si256(v, six_three)), one_v);
      const __m256i set = _mm256_cmpeq_epi64(bit, one_v);
      AccumulatePd(theta + vi, _mm256_and_pd(_mm256_castsi256_pd(set), w_v));
    }
    for (; vi < num_values; ++vi) {
      const uint64_t v = values[vi];
      const double set =
          static_cast<double>((row[v / 64] >> (v % 64)) & 1ull);
      theta[vi] += weight * set;
    }
  }
}

void HrSpectrumAvx2(const uint64_t* indices, const double* sums,
                    size_t num_entries, const uint64_t* values,
                    size_t num_values, double* total) {
  const __m256i one_v = _mm256_set1_epi64x(1);
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t e = 0; e < num_entries; ++e) {
    const uint64_t j = indices[e];
    const double sum = sums[e];
    const __m256i j_v = _mm256_set1_epi64x(static_cast<long long>(j));
    const __m256d sum_v = _mm256_set1_pd(sum);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i parity = _mm256_and_si256(
          Popcount64V(_mm256_and_si256(j_v, v)), one_v);
      // Odd parity means Entry = -1; multiplying a finite double by -1.0 is
      // exactly a sign-bit flip, so XOR the parity into the sign bit.
      const __m256d contribution = _mm256_xor_pd(
          sum_v, _mm256_castsi256_pd(_mm256_slli_epi64(parity, 63)));
      AccumulatePd(total + vi, contribution);
    }
    for (; vi < num_values; ++vi) {
      const int entry = (__builtin_popcountll(j & values[vi]) & 1) ? -1 : 1;
      total[vi] += sum * entry;
    }
  }
}

}  // namespace

const FoKernels& Avx2FoKernels() {
  static const FoKernels kernels = {
      SimdLevel::kAvx2, &OlhRawAvx2, &OlhHistAvx2,
      &GrrRawAvx2,      &OueRawAvx2, &HrSpectrumAvx2,
  };
  return kernels;
}

}  // namespace ldp
