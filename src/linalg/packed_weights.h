// PackedWeights: a constant GEMM operand materialized once, at freeze
// time, in the tile-panel layout every gemm backend streams.
//
// The serving hot path of every dense layer is C = A · op(B) where B is a
// constant weight matrix.  gemm() packs op(B) into tile panels in scratch
// *per call* — O(k·n) copy work and k·n floats of workspace on every
// request.  A PackedWeights performs that pack exactly once
// (Module::freeze), after which gemm_prepacked() consumes the cached
// panels directly: zero per-request packing, bit-identical results, and a
// smaller workspace watermark (asserted by tests/runtime/session_test.cpp
// and tests/linalg/gemm_prepacked_test.cpp).
//
// Layout (the same under every backend): ceil(n/16) panels of k × 16
// floats, the tail panel zero-padded, so each microkernel k-step reads
// one contiguous 16-float panel row.  Each pack also records the backend
// active when it was made; gemm_prepacked runs that backend's kernel, so
// a pack keeps producing the same bits even if the active backend is
// later overridden (re-freeze migrates it).
#pragma once

#include <vector>

#include "core/tensor.h"
#include "core/workspace.h"
#include "linalg/gemm_backend.h"

namespace qdnn::linalg {

class PackedWeights {
 public:
  PackedWeights() = default;

  // Materializes op(src) in tile panels:
  //   trans == false: src is [k, n] with leading dimension `ld` (>= n);
  //   trans == true:  src is [n, k] with leading dimension `ld` (>= k),
  //                   and the pack holds its transpose.
  // Re-packing an already-packed object replaces the previous pack (the
  // freeze-after-weight-update path) and re-reads the active backend.
  void pack(bool trans, index_t k, index_t n, const float* src, index_t ld);

  // Drops the pack and returns the object to the empty state (unfreeze).
  void clear();

  bool packed() const { return packed_; }
  // op(B) dimensions: rows() = k (reduction), cols() = n (output).
  index_t rows() const { return k_; }
  index_t cols() const { return n_; }
  // The backend whose kernel consumes this pack.
  GemmBackend backend() const { return backend_; }
  // The packed block: ceil(n/16) panels of k*16 floats each (element
  // (p, j) of panel jp at data()[jp*k*16 + p*16 + j]), so data()[0] is
  // op(B)(0, 0).
  const float* data() const { return data_.data(); }
  index_t size_floats() const { return static_cast<index_t>(data_.size()); }

 private:
  index_t k_ = 0, n_ = 0;
  bool packed_ = false;
  GemmBackend backend_ = GemmBackend::kGeneric;
  std::vector<float> data_;
};

// C(m,n) = alpha * op(A) * B + beta * C, where `b` holds op(B) packed by
// PackedWeights::pack.  Bit-identical to the corresponding
// gemm(trans_a, trans_b, ...) call on the source operand whenever the
// active backend matches the pack's: the same kernel consumes the same
// panel bytes, packed at freeze time instead of per call.  `scratch` is
// needed only when trans_a (m * k floats); pass nullptr otherwise.
void gemm_prepacked(bool trans_a, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda,
                    const PackedWeights& b, float beta, float* c,
                    index_t ldc, float* scratch = nullptr);

// The forward gemm of a dense layer: y[m, n] = x[m, k] · Wᵀ for a weight
// W stored [n, k] row-major (the nn layout).  Consumes `packed` when
// freeze() filled it; otherwise packs Wᵀ into scratch taken from `ws`
// for this call.  Either way one kernel runs over the same panel bytes,
// so the result does not depend on whether the layer is frozen.
void gemm_weights(index_t m, index_t n, index_t k, const float* x,
                  const float* w, const PackedWeights& packed, float* y,
                  Workspace& ws);

}  // namespace qdnn::linalg
