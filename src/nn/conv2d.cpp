#include "nn/conv2d.h"

#include <vector>

#include "linalg/gemm.h"

namespace qdnn::nn {

namespace {

// Scratch floats conv_sample_forward needs: the im2col block followed by
// the gemm's panel pack of it.
index_t conv_scratch_floats(const ConvGeometry& g, index_t out_channels,
                            index_t n_cols) {
  const index_t patch = g.patch_size();
  return patch * n_cols + linalg::gemm_scratch_floats(
                              false, false, out_channels, n_cols, patch);
}

// Per-sample im2col + GEMM + bias body shared by forward() and
// forward_into() — one definition so training and serving cannot drift.
// `cols` is caller-provided scratch of conv_scratch_floats() floats.
void conv_sample_forward(const float* image, index_t h, index_t w,
                         const ConvGeometry& g, const float* weight,
                         const float* bias, index_t out_channels,
                         index_t n_cols, float* cols, float* out_s) {
  const index_t patch = g.patch_size();
  im2col(image, h, w, g, cols);
  linalg::gemm(false, false, out_channels, n_cols, patch, 1.0f, weight,
               patch, cols, n_cols, 0.0f, out_s, n_cols,
               cols + patch * n_cols);
  if (bias) {
    for (index_t oc = 0; oc < out_channels; ++oc) {
      const float b = bias[oc];
      float* row = out_s + oc * n_cols;
      for (index_t j = 0; j < n_cols; ++j) row[j] += b;
    }
  }
}

}  // namespace

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
               index_t stride, index_t padding, Rng& rng, bool bias,
               std::string name)
    : geometry_{in_channels, kernel, stride, padding},
      out_channels_(out_channels),
      has_bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Tensor{Shape{out_channels, geometry_.patch_size()}}),
      bias_(name_ + ".bias", bias ? Tensor{Shape{out_channels}} : Tensor{}) {
  QDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2d: dims must be positive");
  kaiming_normal(weight_.value, geometry_.patch_size(), rng);
  bias_.decay = false;
}

Tensor Conv2d::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t n_cols = oh * ow;

  Tensor out{Shape{n, out_channels_, oh, ow}};
  std::vector<float> cols(static_cast<std::size_t>(
      conv_scratch_floats(geometry_, out_channels_, n_cols)));
  for (index_t s = 0; s < n; ++s)
    conv_sample_forward(input.data() + s * geometry_.in_channels * h * w, h,
                        w, geometry_, weight_.value.data(),
                        has_bias_ ? bias_.value.data() : nullptr,
                        out_channels_, n_cols, cols.data(),
                        out.data() + s * out_channels_ * n_cols);
  return out;
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], geometry_.in_channels, name_ << ": channels");
  return Shape{input_shape[0], out_channels_,
               geometry_.out_extent(input_shape[2]),
               geometry_.out_extent(input_shape[3])};
}

void Conv2d::forward_into(const ConstTensorView& input, const TensorView& output,
                          Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t n_cols = oh * ow;
  QDNN_CHECK(output.rank() == 4 && output.dim(0) == n &&
                 output.dim(1) == out_channels_ && output.dim(2) == oh &&
                 output.dim(3) == ow,
             name_ << ": bad output view " << output.shape());

  float* cols =
      ws.alloc(conv_scratch_floats(geometry_, out_channels_, n_cols));
  for (index_t s = 0; s < n; ++s)
    conv_sample_forward(input.data() + s * geometry_.in_channels * h * w, h,
                        w, geometry_, weight_.value.data(),
                        has_bias_ ? bias_.value.data() : nullptr,
                        out_channels_, n_cols, cols,
                        output.data() + s * out_channels_ * n_cols);
}

void Conv2d::freeze() {
  cached_input_ = Tensor{};
  Module::freeze();
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  QDNN_CHECK(grad_output.shape() == Shape({n, out_channels_, oh, ow}),
             name_ << ": grad_output shape " << grad_output.shape());

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  for (index_t s = 0; s < n; ++s) {
    const float* g_s = grad_output.data() + s * out_channels_ * n_cols;
    im2col(input.data() + s * geometry_.in_channels * h * w, h, w, geometry_,
           cols.data());
    // dW += g · colsᵀ  — [oc, patch]
    linalg::gemm(false, true, out_channels_, patch, n_cols, 1.0f, g_s,
                 n_cols, cols.data(), n_cols, 1.0f, weight_.grad.data(),
                 patch);
    if (has_bias_) {
      for (index_t oc = 0; oc < out_channels_; ++oc) {
        const float* row = g_s + oc * n_cols;
        float acc = 0.0f;
        for (index_t j = 0; j < n_cols; ++j) acc += row[j];
        bias_.grad[oc] += acc;
      }
    }
    // d(cols) = Wᵀ · g — [patch, n_cols]; scatter back via col2im.
    linalg::gemm(true, false, patch, n_cols, out_channels_, 1.0f,
                 weight_.value.data(), patch, g_s, n_cols, 0.0f,
                 grad_cols.data(), n_cols);
    col2im(grad_cols.data(), h, w, geometry_,
           grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

}  // namespace qdnn::nn
