// AVX-512 kernels: 8 x double lanes, lane = value. The loops run one 8-value
// chunk at a time and keep the chunk's partial sums in a register across the
// whole reduction, so each value's sum still sees exactly the scalar kernel's
// sequence of adds. A partial last chunk is the same vector step under a
// lane mask (masked loads fault on no disabled lane), unless it is so short
// that the AVX2 kernel is cheaper (see VectorValues). A non-supporting report
// leaves its lane unchanged through a masked add, which is bitwise the scalar
// `theta += w * 0.0` (theta is never -0.0).
//
// Only the OLH entries have AVX-512 bodies: the table reuses the AVX2 entries
// for GRR, OUE and HR (every AVX-512F host has AVX2, and no measured workload
// is bound by those scans).
//
// This TU is compiled with -mavx512f -mavx512dq -ffp-contract=off and must
// not be entered unless __builtin_cpu_supports("avx512f") and ("avx512dq") —
// dispatch.cc guarantees that. No FMA: a fused multiply-add would round
// differently from the scalar kernels.
//
// Shifts and 32-bit multiplies use the `_mm512_maskz_*(kAllLanes, ...)`
// forms: GCC 12 expands the unmasked ones through _mm512_undefined_epi32()
// and warns -Wmaybe-uninitialized on it. An all-ones mask compiles to the
// unmasked instruction.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "fo/simd/simd.h"

namespace ldp {

const FoKernels& Avx2FoKernels();  // kernels_avx2.cc

namespace {

constexpr size_t kLanes = 8;
constexpr __mmask8 kAllLanes = 0xFF;

/// The lanes of the chunk starting at `vi` that hold a value: all 8, or the
/// low `num_values - vi` of them for the last, partial chunk.
inline __mmask8 ChunkLanes(size_t vi, size_t num_values) {
  const size_t left = num_values - vi;
  return left >= kLanes ? kAllLanes
                        : static_cast<__mmask8>((1u << left) - 1u);
}

template <unsigned kShift>
inline __m512i Srli64(__m512i x) {
  return _mm512_maskz_srli_epi64(kAllLanes, x, kShift);
}

/// Lane-wise Mix64 (common/hash.h), same xor-shift-multiply chain, with the
/// native AVX-512DQ 64-bit multiply-low.
inline __m512i Mix64V(__m512i x) {
  x = _mm512_xor_si512(x, Srli64<30>(x));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = _mm512_xor_si512(x, Srli64<27>(x));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  x = _mm512_xor_si512(x, Srli64<31>(x));
  return x;
}

/// Lane-wise (h * g) >> 64 for g < 2^32, as in the AVX2 TU:
/// (h g) >> 64 = (h_hi g + ((h_lo g) >> 32)) >> 32, with no lane overflow.
inline __m512i MulHi64By32(__m512i h, __m512i g) {
  const __m512i lo_prod_hi =
      Srli64<32>(_mm512_maskz_mul_epu32(kAllLanes, h, g));
  return Srli64<32>(_mm512_add_epi64(
      _mm512_maskz_mul_epu32(kAllLanes, Srli64<32>(h), g), lo_prod_hi));
}

/// Lane-wise EvalWithBase: bucket_v = ((Mix64(base + v)) * g) >> 64.
inline __m512i EvalWithBaseV(__m512i base, __m512i v, __m512i g) {
  return MulHi64By32(Mix64V(_mm512_add_epi64(base, v)), g);
}

/// The shortest partial last chunk worth a masked 8-lane step. An 8-lane
/// step costs the same however few lanes are live. Measured single-threaded
/// on an AVX-512F/DQ x86-64 server core, one step takes about 4.6 ns per
/// report (raw) and 5.3 ns per pool seed (histogram), while the AVX2 kernel
/// takes about 2.9 ns for one raw value and 2.7/3.0/4.3/4.9 ns for one to
/// four histogram values.
constexpr size_t kMinRawTail = 2;
constexpr size_t kMinHistTail = 5;

/// How many of `num_values` the 8-lane loop takes: all of them, or only the
/// full chunks when the last chunk would have fewer than `min_tail` values.
/// The caller hands the rest to the AVX2 kernel; every value's sum is still
/// computed by one kernel in the scalar order, so the bits do not change.
inline size_t VectorValues(size_t num_values, size_t min_tail) {
  const size_t tail = num_values % kLanes;
  return tail != 0 && tail < min_tail ? num_values - tail : num_values;
}

void OlhRawAvx512(const uint32_t* seeds, const uint32_t* ys,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, uint32_t g, const uint64_t* values,
                  size_t num_values, double* theta) {
  const size_t nv = VectorValues(num_values, kMinRawTail);
  if (nv < num_values) {
    Avx2FoKernels().olh_raw(seeds, ys, users, num_reports, weights, g,
                            values + nv, num_values - nv, theta + nv);
  }
  const __m512i g_v = _mm512_set1_epi64(static_cast<long long>(g));
  for (size_t vi = 0; vi < nv; vi += kLanes) {
    const __mmask8 lanes = ChunkLanes(vi, nv);
    const __m512i v = _mm512_maskz_loadu_epi64(lanes, values + vi);
    __m512d acc = _mm512_maskz_loadu_pd(lanes, theta + vi);
    for (size_t i = 0; i < num_reports; ++i) {
      const __m512i base_v = _mm512_set1_epi64(
          static_cast<long long>(SeededHashFamily::SeedBase(seeds[i])));
      const __m512i y_v = _mm512_set1_epi64(static_cast<long long>(ys[i]));
      const double weight = weights == nullptr ? 1.0 : weights[users[i]];
      const __mmask8 hit = _mm512_mask_cmpeq_epi64_mask(
          lanes, EvalWithBaseV(base_v, v, g_v), y_v);
      acc = _mm512_mask_add_pd(acc, hit, acc, _mm512_set1_pd(weight));
    }
    _mm512_mask_storeu_pd(theta + vi, lanes, acc);
  }
}

void OlhHistAvx512(const double* hist, uint32_t pool, uint32_t g,
                   const uint64_t* values, size_t num_values, double* theta) {
  const size_t nv = VectorValues(num_values, kMinHistTail);
  if (nv < num_values) {
    Avx2FoKernels().olh_hist(hist, pool, g, values + nv, num_values - nv,
                             theta + nv);
  }
  const __m512i g_v = _mm512_set1_epi64(static_cast<long long>(g));
  for (size_t vi = 0; vi < nv; vi += kLanes) {
    const __mmask8 lanes = ChunkLanes(vi, nv);
    const __m512i v = _mm512_maskz_loadu_epi64(lanes, values + vi);
    __m512d acc = _mm512_maskz_loadu_pd(lanes, theta + vi);
    for (uint32_t s = 0; s < pool; ++s) {
      const __m512i base_v = _mm512_set1_epi64(
          static_cast<long long>(SeededHashFamily::SeedBase(s)));
      const double* row = hist + static_cast<size_t>(s) * g;
      // Disabled lanes gather nothing and add +0.0 to a lane never stored.
      const __m512d cell = _mm512_mask_i64gather_pd(
          _mm512_setzero_pd(), lanes, EvalWithBaseV(base_v, v, g_v), row, 8);
      acc = _mm512_add_pd(acc, cell);
    }
    _mm512_mask_storeu_pd(theta + vi, lanes, acc);
  }
}

}  // namespace

const FoKernels& Avx512FoKernels() {
  const FoKernels& avx2 = Avx2FoKernels();
  static const FoKernels kernels = {
      SimdLevel::kAvx512, &OlhRawAvx512, &OlhHistAvx512,
      avx2.grr_raw,       avx2.oue_raw,  avx2.hr_spectrum,
  };
  return kernels;
}

}  // namespace ldp
