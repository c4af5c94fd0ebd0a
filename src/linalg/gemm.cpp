#include "linalg/gemm.h"

#include <vector>

#include "linalg/gemm_backend.h"
#include "linalg/gemm_kernels.h"
#include "linalg/packed_weights.h"

namespace qdnn::linalg {

namespace {

// Shared prologue of every gemm entry point: scale/clear C by beta.
void scale_c(index_t m, index_t n, float beta, float* c, index_t ldc) {
  if (beta == 0.0f) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
  } else if (beta != 1.0f) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
  }
}

// Materializes Aᵀ (A is [k, m], leading dimension lda) as row-major
// [m, k] in `pack`, the layout every kernel reads A in.
void pack_a_transposed(index_t m, index_t k, const float* a, index_t lda,
                       float* pack) {
  for (index_t p = 0; p < k; ++p)
    for (index_t i = 0; i < m; ++i) pack[i * k + p] = a[p * lda + i];
}

}  // namespace

namespace detail {

void pack_panels(bool trans, index_t k, index_t n, const float* src,
                 index_t ld, float* dst) {
  constexpr index_t w = kPanelWidth;
  for (index_t j0 = 0; j0 < n; j0 += w) {
    const index_t nr = std::min(w, n - j0);
    float* panel = dst + (j0 / w) * k * w;
    for (index_t p = 0; p < k; ++p) {
      float* row = panel + p * w;
      if (trans) {
        for (index_t j = 0; j < nr; ++j) row[j] = src[(j0 + j) * ld + p];
      } else {
        for (index_t j = 0; j < nr; ++j) row[j] = src[p * ld + j0 + j];
      }
      for (index_t j = nr; j < w; ++j) row[j] = 0.0f;
    }
  }
}

}  // namespace detail

index_t gemm_scratch_floats(bool trans_a, bool /*trans_b*/, index_t m,
                            index_t n, index_t k) {
  return (trans_a ? m * k : 0) + detail::panel_floats(k, n);
}

void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc, float* scratch) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  QDNN_CHECK(scratch != nullptr,
             "gemm: needs caller-provided scratch "
             "(gemm_scratch_floats(trans_a, trans_b, m, n, k) floats)");

  // Per-call packing: Aᵀ into row-major when trans_a, then op(B) into the
  // tile-panel layout PackedWeights makes at freeze time, so this call
  // runs the same kernel over the same panel bytes as gemm_prepacked.
  const float* aa = a;
  index_t alda = lda;
  if (trans_a) {
    pack_a_transposed(m, k, a, lda, scratch);
    aa = scratch;
    alda = k;
    scratch += m * k;
  }
  detail::pack_panels(trans_b, k, n, b, ldb, scratch);
  detail::run_gemm(active_gemm_backend(), m, n, k, alpha, aa, alda, scratch,
                   c, ldc);
}

void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc) {
  detail::note_heap_pack_call();
  std::vector<float> scratch(static_cast<std::size_t>(
      (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
          ? 0
          : gemm_scratch_floats(trans_a, trans_b, m, n, k)));
  gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
       scratch.data());
}

void gemm_prepacked(bool trans_a, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda,
                    const PackedWeights& b, float beta, float* c,
                    index_t ldc, float* scratch) {
  QDNN_CHECK(b.packed(), "gemm_prepacked: operand B is not packed");
  QDNN_CHECK(b.rows() == k && b.cols() == n,
             "gemm_prepacked: pack is [" << b.rows() << ", " << b.cols()
                                         << "], call wants [" << k << ", "
                                         << n << "]");
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  QDNN_CHECK(!trans_a || scratch != nullptr,
             "gemm_prepacked: trans_a needs caller-provided scratch "
             "(m * k floats)");

  const float* aa = a;
  index_t alda = lda;
  if (trans_a) {
    pack_a_transposed(m, k, a, lda, scratch);
    aa = scratch;
    alda = k;
  }
  // Dispatch on the backend that made the pack, not the globally active
  // one: a pack keeps producing the bits of the backend it was frozen
  // under even if the active backend is switched afterwards (re-freeze
  // migrates it).
  detail::run_gemm(b.backend(), m, n, k, alpha, aa, alda, b.data(), c, ldc);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(1), b.dim(0), "matmul: inner dims");
  Tensor c{Shape{a.dim(0), b.dim(1)}};
  gemm(false, false, a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul_tn: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul_tn: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(0), b.dim(0), "matmul_tn: inner dims");
  Tensor c{Shape{a.dim(1), b.dim(1)}};
  gemm(true, false, a.dim(1), b.dim(1), a.dim(0), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul_nt: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul_nt: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(1), b.dim(1), "matmul_nt: inner dims");
  Tensor c{Shape{a.dim(0), b.dim(0)}};
  gemm(false, true, a.dim(0), b.dim(0), a.dim(1), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

void gemv(bool trans_a, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, float beta, float* y) {
  const index_t out_dim = trans_a ? n : m;
  if (beta == 0.0f) {
    for (index_t i = 0; i < out_dim; ++i) y[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (index_t i = 0; i < out_dim; ++i) y[i] *= beta;
  }
  if (!trans_a) {
    for (index_t i = 0; i < m; ++i)
      y[i] += alpha * dot(a + i * lda, x, n);
  } else {
    for (index_t i = 0; i < m; ++i) {
      const float xv = alpha * x[i];
      if (xv == 0.0f) continue;
      axpy(n, xv, a + i * lda, y);
    }
  }
}

float dot(const float* a, const float* b, index_t n) {
  switch (active_gemm_backend()) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      return detail::dot_avx2(a, b, n);
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      return detail::dot_neon(a, b, n);
#endif
    default:
      return detail::dot_generic(a, b, n);
  }
}

void axpy(index_t n, float alpha, const float* x, float* y) {
  switch (active_gemm_backend()) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      detail::axpy_avx2(n, alpha, x, y);
      return;
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      detail::axpy_neon(n, alpha, x, y);
      return;
#endif
    default:
      detail::axpy_generic(n, alpha, x, y);
      return;
  }
}

}  // namespace qdnn::linalg
