// Must-fire: raw vector intrinsics. The tree has no vector code path, and
// this kernel comes with no end-to-end benchmark win to justify one.
#include <immintrin.h>

double pair_sum(const double* p) {
  __m128d v = _mm_loadu_pd(p);
  __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_add_sd(v, hi));
}

#if defined(__aarch64__)
#include <arm_neon.h>

double pair_sum_neon(const double* p) {
  float64x2_t v = vld1q_f64(p);
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}
#endif
