#include "linalg/packed_weights.h"

#include "linalg/gemm.h"
#include "linalg/gemm_kernels.h"

namespace qdnn::linalg {

void PackedWeights::pack(bool trans, index_t k, index_t n, const float* src,
                         index_t ld) {
  QDNN_CHECK(k >= 0 && n >= 0, "PackedWeights::pack: negative dims");
  QDNN_CHECK(ld >= (trans ? k : n),
             "PackedWeights::pack: leading dimension " << ld
                                                       << " too small");
  k_ = k;
  n_ = n;
  backend_ = active_gemm_backend();
  data_.resize(static_cast<std::size_t>(detail::panel_floats(k, n)));
  detail::pack_panels(trans, k, n, src, ld, data_.data());
  packed_ = true;
}

void PackedWeights::clear() {
  k_ = 0;
  n_ = 0;
  packed_ = false;
  backend_ = GemmBackend::kGeneric;
  data_.clear();
  data_.shrink_to_fit();
}

void gemm_weights(index_t m, index_t n, index_t k, const float* x,
                  const float* w, const PackedWeights& packed, float* y,
                  Workspace& ws) {
  if (packed.packed()) {
    gemm_prepacked(false, m, n, k, 1.0f, x, k, packed, 0.0f, y, n);
  } else {
    gemm(false, true, m, n, k, 1.0f, x, k, w, k, 0.0f, y, n,
         ws.alloc(gemm_scratch_floats(false, true, m, n, k)));
  }
}

}  // namespace qdnn::linalg
