// AVX2/FMA backend: 6x16 register-tiled microkernel.
//
// This translation unit is the only one compiled with -mavx2 -mfma
// (CMake sets per-source flags), so the rest of the library keeps the
// baseline ISA and the runtime CPUID check in gemm_dispatch.cpp decides
// whether these kernels may run.
//
// Tile shape: 6 rows of A x one 16-column B panel, accumulated in 12
// ymm registers.  Per k step: 2 B loads from the tile-panel pack, 6 A
// broadcasts, 12 FMAs — FMA-throughput-bound on any AVX2 core.  Ragged
// m runs 1..5-row variants of the same tile; every variant issues the
// identical per-row FMA sequence over p, which is what keeps results
// independent of batch position and of row sharding (the bit-identity
// contracts upstream rely on exactly this).
#include "linalg/gemm_kernels.h"

#if defined(QDNN_SIMD_AVX2)

#include <immintrin.h>

namespace qdnn::linalg::detail {

namespace {

// All-ones prefix mask for the first `lanes` (0..8) of a ymm vector.
inline __m256i prefix_mask(index_t lanes) {
  alignas(32) static constexpr int kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                -1, -1, 0,  0,  0,  0,
                                                0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - lanes));
}

// One MR x 16 tile: C[0..MR) rows x columns [0, nr) of the panel at
// `panel` (k rows of 16 floats).  The tail panel is zero-padded, so B
// loads are never masked; TAIL masks only the C loads/stores to the nr
// valid columns.
template <int MR, bool TAIL>
inline void tile(const float* a, index_t lda, const float* panel,
                 index_t k, float alpha, float* c, index_t ldc,
                 index_t nr) {
  __m256 acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (index_t p = 0; p < k; ++p) {
    const float* bp = panel + p * kPanelWidth;
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i * lda + p);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  if (!TAIL) {
    for (int i = 0; i < MR; ++i) {
      float* cp = c + i * ldc;
      _mm256_storeu_ps(
          cp, _mm256_fmadd_ps(va, acc[i][0], _mm256_loadu_ps(cp)));
      _mm256_storeu_ps(
          cp + 8, _mm256_fmadd_ps(va, acc[i][1], _mm256_loadu_ps(cp + 8)));
    }
    return;
  }
  const __m256i m0 = prefix_mask(nr < 8 ? nr : 8);
  const __m256i m1 = prefix_mask(nr > 8 ? nr - 8 : 0);
  for (int i = 0; i < MR; ++i) {
    float* cp = c + i * ldc;
    _mm256_maskstore_ps(
        cp, m0, _mm256_fmadd_ps(va, acc[i][0], _mm256_maskload_ps(cp, m0)));
    if (nr > 8)
      _mm256_maskstore_ps(
          cp + 8, m1,
          _mm256_fmadd_ps(va, acc[i][1], _mm256_maskload_ps(cp + 8, m1)));
  }
}

template <bool TAIL>
inline void tile_rows(int mr, const float* a, index_t lda,
                      const float* panel, index_t k, float alpha, float* c,
                      index_t ldc, index_t nr) {
  switch (mr) {
    case 6: tile<6, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 5: tile<5, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 4: tile<4, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 3: tile<3, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 2: tile<2, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    case 1: tile<1, TAIL>(a, lda, panel, k, alpha, c, ldc, nr); break;
    default: break;
  }
}

}  // namespace

void gemm_kernel_avx2(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const float* b,
                      float* c, index_t ldc) {
  constexpr int kMr = 6;
  for (index_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const index_t nr = std::min(kPanelWidth, n - j0);
    const float* panel = b + (j0 / kPanelWidth) * k * kPanelWidth;
    // Every row count runs the same per-row FMA sequence over p.
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

float dot_avx2(const float* a, const float* b, index_t n) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  const __m256 s = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                 _mm256_add_ps(acc2, acc3));
  __m128 lo = _mm256_castps256_ps128(s);
  const __m128 hi = _mm256_extractf128_ps(s, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float sum = _mm_cvtss_f32(lo);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void axpy_avx2(index_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  index_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace qdnn::linalg::detail

#endif  // QDNN_SIMD_AVX2
