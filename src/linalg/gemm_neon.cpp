// NEON backend (aarch64): 4x16 register-tiled microkernel — the ARM
// twin of gemm_avx2.cpp.  Per k step: four 4-lane B loads across the
// 16-column panel, one broadcast per A row, 16 FMAs into a 4x4 block
// of q-register accumulators.  B always arrives as a zero-padded
// tile-panel pack, so B loads are plain; ragged n only narrows the C
// loads/stores, through a zero-padded stack vector (NEON has no masked
// loads).
#include "linalg/gemm_kernels.h"

#if defined(QDNN_SIMD_NEON)

#include <arm_neon.h>

namespace qdnn::linalg::detail {

namespace {

constexpr int kVec = 4;  // lanes per q register

// Loads `valid` (0..4) leading lanes from p, zeroes the rest.
inline float32x4_t load_padded(const float* p, index_t valid) {
  if (valid >= kVec) return vld1q_f32(p);
  float tmp[kVec] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (index_t j = 0; j < valid; ++j) tmp[j] = p[j];
  return vld1q_f32(tmp);
}

// Stores the `valid` (0..4) leading lanes of v to p.
inline void store_valid(float* p, float32x4_t v, index_t valid) {
  if (valid >= kVec) {
    vst1q_f32(p, v);
    return;
  }
  float tmp[kVec];
  vst1q_f32(tmp, v);
  for (index_t j = 0; j < valid; ++j) p[j] = tmp[j];
}

// One MR x 16 tile over columns [0, nr) of the panel at `panel` (k rows
// of 16 floats).  TAIL loads and stores only the valid C lanes.
template <int MR, bool TAIL>
inline void tile(const float* a, index_t lda, const float* panel,
                 index_t k, float alpha, float* c, index_t ldc,
                 index_t nr) {
  float32x4_t acc[MR][4];
  for (int i = 0; i < MR; ++i)
    for (int q = 0; q < 4; ++q) acc[i][q] = vdupq_n_f32(0.0f);
  for (index_t p = 0; p < k; ++p) {
    const float* bp = panel + p * kPanelWidth;
    float32x4_t b[4];
    for (int q = 0; q < 4; ++q) b[q] = vld1q_f32(bp + q * kVec);
    for (int i = 0; i < MR; ++i) {
      const float32x4_t av = vdupq_n_f32(a[i * lda + p]);
      for (int q = 0; q < 4; ++q)
        acc[i][q] = vfmaq_f32(acc[i][q], av, b[q]);
    }
  }
  const float32x4_t va = vdupq_n_f32(alpha);
  for (int i = 0; i < MR; ++i) {
    float* cp = c + i * ldc;
    for (int q = 0; q < 4; ++q) {
      if (!TAIL) {
        vst1q_f32(cp + q * kVec,
                  vfmaq_f32(vld1q_f32(cp + q * kVec), va, acc[i][q]));
        continue;
      }
      const index_t v = nr - q * kVec;
      const index_t valid = v < 0 ? 0 : (v > kVec ? kVec : v);
      if (valid > 0) {
        const float32x4_t cv = load_padded(cp + q * kVec, valid);
        store_valid(cp + q * kVec, vfmaq_f32(cv, va, acc[i][q]), valid);
      }
    }
  }
}

template <bool TAIL>
inline void tile_rows(int mr, const float* a, index_t lda,
                      const float* panel, index_t k, float alpha, float* c,
                      index_t ldc, index_t nr) {
  switch (mr) {
    case 4: tile<4, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 3: tile<3, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 2: tile<2, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 1: tile<1, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    default: break;
  }
}

}  // namespace

void gemm_kernel_neon(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const float* b,
                      float* c, index_t ldc) {
  constexpr int kMr = 4;
  for (index_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const index_t nr = std::min(kPanelWidth, n - j0);
    const float* panel = b + (j0 / kPanelWidth) * k * kPanelWidth;
    for (index_t i = 0; i < m; i += kMr) {
      const int mr = static_cast<int>(std::min<index_t>(kMr, m - i));
      if (nr < kPanelWidth)
        tile_rows<true>(mr, a + i * lda, lda, panel, k, alpha,
                        c + i * ldc + j0, ldc, nr);
      else
        tile_rows<false>(mr, a + i * lda, lda, panel, k, alpha,
                         c + i * ldc + j0, ldc, nr);
    }
  }
}

float dot_neon(const float* a, const float* b, index_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  index_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + i + 8), vld1q_f32(b + i + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + i + 12), vld1q_f32(b + i + 12));
  }
  for (; i + 4 <= n; i += 4)
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  const float32x4_t s =
      vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  float32x2_t t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
  t = vpadd_f32(t, t);
  float sum = vget_lane_f32(t, 0);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void axpy_neon(index_t n, float alpha, const float* x, float* y) {
  const float32x4_t va = vdupq_n_f32(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace qdnn::linalg::detail

#endif  // QDNN_SIMD_NEON
