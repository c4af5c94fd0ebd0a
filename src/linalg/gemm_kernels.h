// Internal kernel interface behind the backend seam (gemm_backend.h).
// gemm.cpp's entry points normalize operands (beta scaling, the trans_a
// pack, the op(B) panel pack) into one accumulate-only call:
//
//   C(m,n) += alpha * A(m,k,lda) * B
//
// where B is always a tile-panel pack: ceil(n/16) panels, each k x 16
// floats with the tail panel zero-padded, so a panel row is one
// contiguous 16-float B slice for the microkernel.  PackedWeights lays
// the panels out once at freeze time; gemm() lays them out per call in
// caller scratch.  Both run the same kernel over the same panel bytes,
// so prepacked and unpacked results are bit-identical within a backend.
#pragma once

#include "core/tensor.h"
#include "linalg/gemm_backend.h"

namespace qdnn::linalg::detail {

// Panel width of the tile-panel pack layout, shared by the AVX2 (6x16)
// and NEON (4x16) microkernels and the generic panel loop.
inline constexpr index_t kPanelWidth = 16;

// Floats a tile-panel pack of a [k, n] operand occupies (tail padded).
inline index_t panel_floats(index_t k, index_t n) {
  return (n + kPanelWidth - 1) / kPanelWidth * kPanelWidth * k;
}

// Writes op(src) into `dst` (panel_floats(k, n) floats) in tile-panel
// layout: element (p, j) lands at dst[(j/16)*k*16 + p*16 + j%16], and
// the tail panel's padding lanes are zeroed.
//   trans == false: src is [k, n] with leading dimension ld (>= n);
//   trans == true:  src is [n, k] with leading dimension ld (>= k).
void pack_panels(bool trans, index_t k, index_t n, const float* src,
                 index_t ld, float* dst);

// Generic scalar panel loop: per (i, j), C accumulates alpha·a(i,p)·b(p,j)
// for ascending p, exactly the seed's blocked ikj arithmetic.
void gemm_kernel_generic(index_t m, index_t n, index_t k, float alpha,
                         const float* a, index_t lda, const float* b,
                         float* c, index_t ldc);

float dot_generic(const float* a, const float* b, index_t n);
void axpy_generic(index_t n, float alpha, const float* x, float* y);

#if defined(QDNN_SIMD_AVX2)
// 6x16 register-tiled AVX2/FMA microkernel: per k step, one broadcast
// per A row and two 8-lane FMAs per row against a 16-column B panel;
// ragged m via 1..5-row tile variants, ragged n via masked C
// loads/stores over the zero-padded tail panel.
void gemm_kernel_avx2(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const float* b,
                      float* c, index_t ldc);
float dot_avx2(const float* a, const float* b, index_t n);
void axpy_avx2(index_t n, float alpha, const float* x, float* y);
#endif

#if defined(QDNN_SIMD_NEON)
// 4x16 register-tiled NEON kernel: per k step, one lane broadcast per A
// row and four 4-lane FMAs per row against the 16-column B panel.
void gemm_kernel_neon(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const float* b,
                      float* c, index_t ldc);
float dot_neon(const float* a, const float* b, index_t n);
void axpy_neon(index_t n, float alpha, const float* x, float* y);
#endif

// Dispatch used by gemm.cpp: runs `backend`'s kernel over C's rows,
// sharding [0,m) across the persistent pool when the threaded path is
// enabled and 2*m*n*k clears the min-work threshold.  `b` is a
// tile-panel pack of the [k, n] operand.  Expects the degenerate cases
// (m/n/k == 0, alpha == 0) to be filtered by the caller.
void run_gemm(GemmBackend backend, index_t m, index_t n, index_t k,
              float alpha, const float* a, index_t lda, const float* b,
              float* c, index_t ldc);

// gemm.cpp-internal counter hook for the allocating convenience
// overload.
void note_heap_pack_call();

}  // namespace qdnn::linalg::detail
