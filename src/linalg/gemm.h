// Dense matrix kernels.  These are the hot paths of the library: conv
// layers (via im2col), attention, and every quadratic-neuron variant reduce
// to calls here.  Every gemm runs one register-tiled microkernel per
// backend (gemm_backend.h) over op(B) in a 16-column tile-panel layout:
// PackedWeights lays the panels out once at freeze time, gemm() lays them
// out per call in caller scratch.  No BLAS dependency, deterministic
// results.
#pragma once

#include "core/tensor.h"

namespace qdnn::linalg {

// C(m,n) = alpha * op(A) * op(B) + beta * C
// op(A) is A (m,k) when !trans_a, or Aᵀ of A (k,m) when trans_a.
void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc);

// Scratch floats gemm needs for these flags and sizes: op(B) packed into
// tile panels (k × n rounded up to whole 16-column panels, for either
// trans_b), plus m × k for the Aᵀ pack when trans_a.
index_t gemm_scratch_floats(bool trans_a, bool trans_b, index_t m,
                            index_t n, index_t k);

// As gemm, but packing uses the caller-provided `scratch` buffer (at
// least gemm_scratch_floats(...) floats) instead of allocating — the
// allocation-free path used by Module::forward_into implementations,
// which draw scratch from a Workspace.  Bit-identical to gemm() and to
// gemm_prepacked on a pack of the same op(B).
void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc, float* scratch);

// Convenience wrappers on Tensor ([m,k] x [k,n] -> [m,n]).
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);  // aᵀ b, a is [k,m]
Tensor matmul_nt(const Tensor& a, const Tensor& b);  // a bᵀ, b is [n,k]

// y(m) = op(A) x + beta*y
void gemv(bool trans_a, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, float beta, float* y);

// Dot product over n elements.
float dot(const float* a, const float* b, index_t n);

// y += alpha * x  (n elements).
void axpy(index_t n, float alpha, const float* x, float* y);

}  // namespace qdnn::linalg
