#include "nn/linear.h"

#include "linalg/gemm.h"

namespace qdnn::nn {

Linear::Linear(index_t in_features, index_t out_features, Rng& rng,
               bool bias, std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor{Shape{out_features, in_features}}),
      bias_(name_ + ".bias",
            bias ? Tensor{Shape{out_features}} : Tensor{}) {
  QDNN_CHECK(in_features > 0 && out_features > 0,
             "Linear: feature dims must be positive");
  kaiming_normal(weight_.value, in_features_, rng);
  bias_.decay = false;
}

Tensor Linear::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_features_, name_ << ": in_features");
  cached_input_ = input;
  const index_t n = input.dim(0);
  Tensor out{Shape{n, out_features_}};
  // out = input * Wᵀ
  linalg::gemm(false, true, n, out_features_, in_features_, 1.0f,
               input.data(), in_features_, weight_.value.data(),
               in_features_, 0.0f, out.data(), out_features_);
  if (has_bias_) {
    for (index_t i = 0; i < n; ++i)
      linalg::axpy(out_features_, 1.0f, bias_.value.data(),
                   out.data() + i * out_features_);
  }
  return out;
}

Shape Linear::output_shape(const Shape& input_shape) const {
  const index_t rank = input_shape.rank();
  QDNN_CHECK(rank == 2 || rank == 3,
             name_ << ": expected [N, in] or [N, T, in]");
  QDNN_CHECK_EQ(input_shape[rank - 1], in_features_,
                name_ << ": in_features");
  if (rank == 2) return Shape{input_shape[0], out_features_};
  return Shape{input_shape[0], input_shape[1], out_features_};
}

void Linear::forward_into(const ConstTensorView& input, const TensorView& output,
                          Workspace& ws) {
  const index_t rank = input.rank();
  QDNN_CHECK(rank == 2 || rank == 3,
             name_ << ": expected [N, in] or [N, T, in]");
  QDNN_CHECK_EQ(input.dim(rank - 1), in_features_, name_ << ": in_features");
  // Leading dims flatten into rows: [N, T, in] runs as [N·T, in].
  const index_t n = input.numel() / in_features_;
  QDNN_CHECK(output.shape() == output_shape(input.shape()),
             name_ << ": bad output view " << output.shape());
  linalg::gemm_weights(n, out_features_, in_features_, input.data(),
                       weight_.value.data(), packed_w_, output.data(), ws);
  if (has_bias_) {
    for (index_t i = 0; i < n; ++i)
      linalg::axpy(out_features_, 1.0f, bias_.value.data(),
                   output.data() + i * out_features_);
  }
}

void Linear::freeze() {
  packed_w_.pack(/*trans=*/true, in_features_, out_features_,
                 weight_.value.data(), in_features_);
  cached_input_ = Tensor{};
  Module::freeze();
}

void Linear::unfreeze() {
  packed_w_.clear();
  Module::unfreeze();
}

Tensor Linear::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  QDNN_CHECK_EQ(grad_output.dim(1), out_features_, name_ << ": grad dims");
  const index_t n = grad_output.dim(0);

  // dW += gᵀ x  — [out, in]
  linalg::gemm(true, false, out_features_, in_features_, n, 1.0f,
               grad_output.data(), out_features_, cached_input_.data(),
               in_features_, 1.0f, weight_.grad.data(), in_features_);
  if (has_bias_) {
    for (index_t i = 0; i < n; ++i)
      linalg::axpy(out_features_, 1.0f, grad_output.data() + i * out_features_,
                   bias_.grad.data());
  }
  // dx = g W — [n, in]
  Tensor grad_input{Shape{n, in_features_}};
  linalg::gemm(false, false, n, in_features_, out_features_, 1.0f,
               grad_output.data(), out_features_, weight_.value.data(),
               in_features_, 0.0f, grad_input.data(), in_features_);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

}  // namespace qdnn::nn
