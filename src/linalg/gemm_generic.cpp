// Generic (portable scalar) backend: the seed blocked ikj arithmetic,
// run over the tile-panel B layout every backend shares.  One deliberate
// change from the seed: the `av == 0.0f` early-continue is gone — it was
// a data-dependent branch in the hottest loop that blocked vectorization
// of the j loop; the alpha == 0 short-circuit lives at the gemm() entry
// points instead.
#include "linalg/gemm_kernels.h"

namespace qdnn::linalg::detail {

// Per (i, j) the reduction runs p ascending with C accumulated in place,
// as in the seed's row-major loop: a 16-column panel row of C is held in
// a local block so the compiler can keep it in vector registers across
// the k loop without changing a single rounding step.
void gemm_kernel_generic(index_t m, index_t n, index_t k, float alpha,
                         const float* a, index_t lda, const float* b,
                         float* c, index_t ldc) {
  for (index_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const index_t nr = std::min(kPanelWidth, n - j0);
    const float* panel = b + (j0 / kPanelWidth) * k * kPanelWidth;
    for (index_t i = 0; i < m; ++i) {
      float* ci = c + i * ldc + j0;
      const float* ai = a + i * lda;
      float acc[kPanelWidth] = {};
      for (index_t j = 0; j < nr; ++j) acc[j] = ci[j];
      for (index_t p = 0; p < k; ++p) {
        const float av = alpha * ai[p];
        const float* bp = panel + p * kPanelWidth;
        for (index_t j = 0; j < kPanelWidth; ++j) acc[j] += av * bp[j];
      }
      for (index_t j = 0; j < nr; ++j) ci[j] = acc[j];
    }
  }
}

float dot_generic(const float* a, const float* b, index_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void axpy_generic(index_t n, float alpha, const float* x, float* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace qdnn::linalg::detail
