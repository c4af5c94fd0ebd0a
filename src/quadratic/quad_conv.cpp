#include "quadratic/quad_conv.h"

#include <cmath>
#include <vector>

#include "linalg/gemm.h"
#include "nn/conv2d.h"
#include "quadratic/kervolution.h"

namespace qdnn::quadratic {

namespace {

// Per-sample output assembly shared by ProposedQuadConv2d::forward and
// ::forward_into — one definition so training and serving cannot drift.
// lin is [filters, n_cols], f_s is [filters*rank, n_cols]; writes the
// channel interleave [y_f, f_1..f_k] per filter into out_s.
void assemble_proposed_conv_sample(const float* lin, const float* f_s,
                                   const float* lambda, const float* bias,
                                   index_t filters, index_t rank,
                                   index_t n_cols, bool emit_features,
                                   float* out_s) {
  const index_t ch_per_filter = emit_features ? rank + 1 : 1;
  for (index_t f = 0; f < filters; ++f) {
    const float* lam = lambda + f * rank;
    float* y_row = out_s + f * ch_per_filter * n_cols;
    const float* lin_row = lin + f * n_cols;
    const float b = bias[f];
    for (index_t j = 0; j < n_cols; ++j) y_row[j] = lin_row[j] + b;
    for (index_t i = 0; i < rank; ++i) {
      const float* f_row = f_s + (f * rank + i) * n_cols;
      const float l = lam[i];
      for (index_t j = 0; j < n_cols; ++j)
        y_row[j] += l * f_row[j] * f_row[j];
      if (emit_features) {
        float* o_row = y_row + (1 + i) * n_cols;
        for (index_t j = 0; j < n_cols; ++j) o_row[j] = f_row[j];
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ProposedQuadConv2d
// ---------------------------------------------------------------------------

ProposedQuadConv2d::ProposedQuadConv2d(index_t in_channels, index_t filters,
                                       index_t kernel, index_t stride,
                                       index_t padding, index_t rank,
                                       Rng& rng, float lambda_lr_scale,
                                       std::string name, bool emit_features)
    : geometry_{in_channels, kernel, stride, padding},
      filters_(filters),
      rank_(rank),
      emit_features_(emit_features),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor{Shape{filters, geometry_.patch_size()}}),
      q_(name_ + ".q",
         Tensor{Shape{filters * rank, geometry_.patch_size()}}),
      lambda_(name_ + ".lambda", Tensor{Shape{filters, rank}}),
      b_(name_ + ".b", Tensor{Shape{filters}}) {
  QDNN_CHECK(filters > 0 && rank > 0, name_ << ": dims must be positive");
  const index_t patch = geometry_.patch_size();
  nn::kaiming_normal(w_.value, patch, rng);
  nn::kaiming_normal(q_.value, patch, rng);
  nn::lambda_init(lambda_.value, rng);
  q_.group = "quadratic_q";
  lambda_.group = "quadratic_lambda";
  lambda_.lr_scale = lambda_lr_scale;
  lambda_.decay = false;
  b_.decay = false;
}

Tensor ProposedQuadConv2d::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  const index_t fr = filters_ * rank_;

  Tensor out{Shape{n, out_channels(), oh, ow}};
  cached_f_ = Tensor{Shape{n, fr, n_cols}};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> lin(static_cast<std::size_t>(filters_ * n_cols));
  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    // Linear responses y₁ and intermediate features fᵏ in two GEMMs.
    linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                 w_.value.data(), patch, cols.data(), n_cols, 0.0f,
                 lin.data(), n_cols);
    float* f_s = cached_f_.data() + s * fr * n_cols;
    linalg::gemm(false, false, fr, n_cols, patch, 1.0f, q_.value.data(),
                 patch, cols.data(), n_cols, 0.0f, f_s, n_cols);

    assemble_proposed_conv_sample(lin.data(), f_s, lambda_.value.data(),
                                  b_.value.data(), filters_, rank_, n_cols,
                                  emit_features_,
                                  out.data() + s * out_channels() * n_cols);
  }
  return out;
}

Shape ProposedQuadConv2d::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], geometry_.in_channels,
                name_ << ": channels");
  return Shape{input_shape[0], out_channels(),
               geometry_.out_extent(input_shape[2]),
               geometry_.out_extent(input_shape[3])};
}

void ProposedQuadConv2d::forward_into(const ConstTensorView& input,
                                      const TensorView& output, Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  const index_t fr = filters_ * rank_;
  QDNN_CHECK(output.rank() == 4 && output.dim(0) == n &&
                 output.dim(1) == out_channels() && output.dim(2) == oh &&
                 output.dim(3) == ow,
             name_ << ": bad output view " << output.shape());

  float* cols = ws.alloc(patch * n_cols);
  float* lin = ws.alloc(filters_ * n_cols);
  float* f_s = ws.alloc(fr * n_cols);
  // Both gemms share B = cols, so they share one pack buffer.
  float* pack = ws.alloc(
      linalg::gemm_scratch_floats(false, false, fr, n_cols, patch));
  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols);
    linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                 w_.value.data(), patch, cols, n_cols, 0.0f, lin, n_cols,
                 pack);
    linalg::gemm(false, false, fr, n_cols, patch, 1.0f, q_.value.data(),
                 patch, cols, n_cols, 0.0f, f_s, n_cols, pack);

    assemble_proposed_conv_sample(
        lin, f_s, lambda_.value.data(), b_.value.data(), filters_, rank_,
        n_cols, emit_features_,
        output.data() + s * out_channels() * n_cols);
  }
}

void ProposedQuadConv2d::freeze() {
  cached_input_ = Tensor{};
  cached_f_ = Tensor{};
  Module::freeze();
}

Tensor ProposedQuadConv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  const index_t fr = filters_ * rank_;
  QDNN_CHECK(grad_output.shape() == Shape({n, out_channels(), oh, ow}),
             name_ << ": grad shape " << grad_output.shape());

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> g_y(static_cast<std::size_t>(filters_ * n_cols));
  std::vector<float> g_f(static_cast<std::size_t>(fr * n_cols));

  for (index_t s = 0; s < n; ++s) {
    const float* g_s = grad_output.data() + s * out_channels() * n_cols;
    const float* f_s = cached_f_.data() + s * fr * n_cols;

    // Assemble effective gradients:
    //   g_y   = dL/dy (the filter's quadratic-output channel)
    //   g_f_i = dL/df_i (direct, from the emitted channel)
    //           + 2 λ_i f_i g_y (through y's quadratic term)
    const index_t ch_per_filter = emit_features_ ? rank_ + 1 : 1;
    for (index_t f = 0; f < filters_; ++f) {
      const float* gy_row = g_s + f * ch_per_filter * n_cols;
      float* gyd = g_y.data() + f * n_cols;
      float g_b = 0.0f;
      for (index_t j = 0; j < n_cols; ++j) {
        gyd[j] = gy_row[j];
        g_b += gy_row[j];
      }
      b_.grad[f] += g_b;
      const float* lam = lambda_.value.data() + f * rank_;
      float* lam_g = lambda_.grad.data() + f * rank_;
      for (index_t i = 0; i < rank_; ++i) {
        const float* f_row = f_s + (f * rank_ + i) * n_cols;
        // Emitted f channels contribute their own gradient; in sum-only
        // mode the only path into fᵏ is through y's quadratic term.
        const float* gf_row = emit_features_ ? gy_row + (1 + i) * n_cols
                                             : nullptr;
        float* gfd = g_f.data() + (f * rank_ + i) * n_cols;
        const float l2 = 2.0f * lam[i];
        float g_l = 0.0f;
        for (index_t j = 0; j < n_cols; ++j) {
          g_l += gyd[j] * f_row[j] * f_row[j];
          gfd[j] = (gf_row ? gf_row[j] : 0.0f) + l2 * f_row[j] * gyd[j];
        }
        lam_g[i] += g_l;
      }
    }

    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    // dW += g_y colsᵀ, dQ += g_f colsᵀ
    linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_y.data(),
                 n_cols, cols.data(), n_cols, 1.0f, w_.grad.data(), patch);
    linalg::gemm(false, true, fr, patch, n_cols, 1.0f, g_f.data(), n_cols,
                 cols.data(), n_cols, 1.0f, q_.grad.data(), patch);
    // d(cols) = Wᵀ g_y + Qᵀ g_f
    linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                 w_.value.data(), patch, g_y.data(), n_cols, 0.0f,
                 grad_cols.data(), n_cols);
    linalg::gemm(true, false, patch, n_cols, fr, 1.0f, q_.value.data(),
                 patch, g_f.data(), n_cols, 1.0f, grad_cols.data(), n_cols);
    nn::col2im(grad_cols.data(), h, w, geometry_,
               grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<nn::Parameter*> ProposedQuadConv2d::parameters() {
  return {&w_, &q_, &lambda_, &b_};
}

// ---------------------------------------------------------------------------
// FactoredQuadConv2d
// ---------------------------------------------------------------------------

FactoredQuadConv2d::FactoredQuadConv2d(index_t in_channels,
                                       index_t out_channels, index_t kernel,
                                       index_t stride, index_t padding,
                                       NeuronKind mode, Rng& rng,
                                       std::string name)
    : geometry_{in_channels, kernel, stride, padding},
      filters_(out_channels),
      mode_(mode),
      name_(std::move(name)) {
  QDNN_CHECK(mode == NeuronKind::kQuad1 || mode == NeuronKind::kQuad2 ||
                 mode == NeuronKind::kBuKarpatne,
             name_ << ": mode must be a rank-1 factored family");
  const index_t patch = geometry_.patch_size();
  w1_ = nn::Parameter(name_ + ".w1", Tensor{Shape{filters_, patch}});
  w2_ = nn::Parameter(name_ + ".w2", Tensor{Shape{filters_, patch}});
  const float f_std = std::sqrt(1.0f / static_cast<float>(patch));
  rng.fill_normal(w1_.value, 0.0f, f_std);
  rng.fill_normal(w2_.value, 0.0f, f_std);
  w1_.group = "quadratic_q";
  w2_.group = "quadratic_q";
  if (has_w3()) {
    w3_ = nn::Parameter(name_ + ".w3", Tensor{Shape{filters_, patch}});
    nn::kaiming_normal(w3_.value, patch, rng);
  }
  c_ = nn::Parameter(name_ + ".c", Tensor{Shape{filters_}});
  c_.decay = false;
}

Shape FactoredQuadConv2d::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], geometry_.in_channels,
                name_ << ": channels");
  return Shape{input_shape[0], filters_,
               geometry_.out_extent(input_shape[2]),
               geometry_.out_extent(input_shape[3])};
}

Tensor FactoredQuadConv2d::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;

  cached_a_ = Tensor{Shape{n, filters_, n_cols}};
  cached_b_ = Tensor{Shape{n, filters_, n_cols}};
  Tensor out{Shape{n, filters_, oh, ow}};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> cols2;
  if (squares_input()) cols2.resize(cols.size());

  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    float* a_s = cached_a_.data() + s * filters_ * n_cols;
    float* b_s = cached_b_.data() + s * filters_ * n_cols;
    float* out_s = out.data() + s * filters_ * n_cols;
    linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                 w1_.value.data(), patch, cols.data(), n_cols, 0.0f, a_s,
                 n_cols);
    linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                 w2_.value.data(), patch, cols.data(), n_cols, 0.0f, b_s,
                 n_cols);
    if (has_w3()) {
      const float* src = cols.data();
      if (squares_input()) {
        for (std::size_t i = 0; i < cols.size(); ++i)
          cols2[i] = cols[i] * cols[i];
        src = cols2.data();
      }
      linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                   w3_.value.data(), patch, src, n_cols, 0.0f, out_s,
                   n_cols);
    }
    for (index_t f = 0; f < filters_; ++f) {
      const float bias = c_.value[f];
      const float* a = a_s + f * n_cols;
      const float* bb = b_s + f * n_cols;
      float* o = out_s + f * n_cols;
      if (mode_ == NeuronKind::kBuKarpatne) {
        for (index_t j = 0; j < n_cols; ++j)
          o[j] += a[j] * bb[j] + a[j] + bias;
      } else {
        for (index_t j = 0; j < n_cols; ++j) o[j] += a[j] * bb[j] + bias;
      }
    }
  }
  return out;
}

Tensor FactoredQuadConv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> cols2;
  if (squares_input()) cols2.resize(cols.size());
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> g_a(static_cast<std::size_t>(filters_ * n_cols));
  std::vector<float> g_b(static_cast<std::size_t>(filters_ * n_cols));

  for (index_t s = 0; s < n; ++s) {
    const float* g_s = grad_output.data() + s * filters_ * n_cols;
    const float* a_s = cached_a_.data() + s * filters_ * n_cols;
    const float* b_s = cached_b_.data() + s * filters_ * n_cols;
    for (index_t f = 0; f < filters_; ++f) {
      const float* g = g_s + f * n_cols;
      const float* a = a_s + f * n_cols;
      const float* bb = b_s + f * n_cols;
      float* ga = g_a.data() + f * n_cols;
      float* gb = g_b.data() + f * n_cols;
      float g_bias = 0.0f;
      for (index_t j = 0; j < n_cols; ++j) {
        ga[j] = g[j] * bb[j];
        gb[j] = g[j] * a[j];
        if (mode_ == NeuronKind::kBuKarpatne) ga[j] += g[j];
        g_bias += g[j];
      }
      c_.grad[f] += g_bias;
    }

    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_a.data(),
                 n_cols, cols.data(), n_cols, 1.0f, w1_.grad.data(), patch);
    linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_b.data(),
                 n_cols, cols.data(), n_cols, 1.0f, w2_.grad.data(), patch);
    linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                 w1_.value.data(), patch, g_a.data(), n_cols, 0.0f,
                 grad_cols.data(), n_cols);
    linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                 w2_.value.data(), patch, g_b.data(), n_cols, 1.0f,
                 grad_cols.data(), n_cols);

    if (has_w3()) {
      if (squares_input()) {
        for (std::size_t i = 0; i < cols.size(); ++i)
          cols2[i] = cols[i] * cols[i];
        linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_s,
                     n_cols, cols2.data(), n_cols, 1.0f, w3_.grad.data(),
                     patch);
        // d(cols) of w₃ᵀ(col⊙col): 2·col ⊙ (W₃ᵀ g); accumulate into a
        // temp then merge so the factor applies only to this term.
        std::vector<float> tmp(static_cast<std::size_t>(patch * n_cols));
        linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                     w3_.value.data(), patch, g_s, n_cols, 0.0f, tmp.data(),
                     n_cols);
        for (std::size_t i = 0; i < tmp.size(); ++i)
          grad_cols[i] += 2.0f * tmp[i] * cols[i];
      } else {
        linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_s,
                     n_cols, cols.data(), n_cols, 1.0f, w3_.grad.data(),
                     patch);
        linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                     w3_.value.data(), patch, g_s, n_cols, 1.0f,
                     grad_cols.data(), n_cols);
      }
    }
    nn::col2im(grad_cols.data(), h, w, geometry_,
               grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<nn::Parameter*> FactoredQuadConv2d::parameters() {
  std::vector<nn::Parameter*> params{&w1_, &w2_};
  if (has_w3()) params.push_back(&w3_);
  params.push_back(&c_);
  return params;
}

// ---------------------------------------------------------------------------
// LowRankQuadConv2d
// ---------------------------------------------------------------------------

LowRankQuadConv2d::LowRankQuadConv2d(index_t in_channels,
                                     index_t out_channels, index_t kernel,
                                     index_t stride, index_t padding,
                                     index_t rank, Rng& rng,
                                     std::string name)
    : geometry_{in_channels, kernel, stride, padding},
      filters_(out_channels),
      rank_(rank),
      name_(std::move(name)) {
  QDNN_CHECK(rank > 0, name_ << ": rank must be positive");
  const index_t patch = geometry_.patch_size();
  q1_ = nn::Parameter(name_ + ".q1", Tensor{Shape{filters_ * rank, patch}});
  q2_ = nn::Parameter(name_ + ".q2", Tensor{Shape{filters_ * rank, patch}});
  w_ = nn::Parameter(name_ + ".w", Tensor{Shape{filters_, patch}});
  b_ = nn::Parameter(name_ + ".b", Tensor{Shape{filters_}});
  const float f_std = std::sqrt(1.0f / static_cast<float>(patch));
  rng.fill_normal(q1_.value, 0.0f, f_std);
  rng.fill_normal(q2_.value, 0.0f, f_std);
  nn::kaiming_normal(w_.value, patch, rng);
  q1_.group = "quadratic_q";
  q2_.group = "quadratic_q";
  b_.decay = false;
}

Shape LowRankQuadConv2d::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], geometry_.in_channels,
                name_ << ": channels");
  return Shape{input_shape[0], filters_,
               geometry_.out_extent(input_shape[2]),
               geometry_.out_extent(input_shape[3])};
}

Tensor LowRankQuadConv2d::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  const index_t fr = filters_ * rank_;

  cached_a_ = Tensor{Shape{n, fr, n_cols}};
  cached_c_ = Tensor{Shape{n, fr, n_cols}};
  Tensor out{Shape{n, filters_, oh, ow}};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    float* a_s = cached_a_.data() + s * fr * n_cols;
    float* c_s = cached_c_.data() + s * fr * n_cols;
    float* out_s = out.data() + s * filters_ * n_cols;
    linalg::gemm(false, false, fr, n_cols, patch, 1.0f, q1_.value.data(),
                 patch, cols.data(), n_cols, 0.0f, a_s, n_cols);
    linalg::gemm(false, false, fr, n_cols, patch, 1.0f, q2_.value.data(),
                 patch, cols.data(), n_cols, 0.0f, c_s, n_cols);
    linalg::gemm(false, false, filters_, n_cols, patch, 1.0f,
                 w_.value.data(), patch, cols.data(), n_cols, 0.0f, out_s,
                 n_cols);
    for (index_t f = 0; f < filters_; ++f) {
      float* o = out_s + f * n_cols;
      const float bias = b_.value[f];
      for (index_t j = 0; j < n_cols; ++j) o[j] += bias;
      for (index_t i = 0; i < rank_; ++i) {
        const float* a = a_s + (f * rank_ + i) * n_cols;
        const float* c = c_s + (f * rank_ + i) * n_cols;
        for (index_t j = 0; j < n_cols; ++j) o[j] += a[j] * c[j];
      }
    }
  }
  return out;
}

Tensor LowRankQuadConv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  const index_t fr = filters_ * rank_;

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> g_a(static_cast<std::size_t>(fr * n_cols));
  std::vector<float> g_c(static_cast<std::size_t>(fr * n_cols));

  for (index_t s = 0; s < n; ++s) {
    const float* g_s = grad_output.data() + s * filters_ * n_cols;
    const float* a_s = cached_a_.data() + s * fr * n_cols;
    const float* c_s = cached_c_.data() + s * fr * n_cols;
    for (index_t f = 0; f < filters_; ++f) {
      const float* g = g_s + f * n_cols;
      float g_bias = 0.0f;
      for (index_t j = 0; j < n_cols; ++j) g_bias += g[j];
      b_.grad[f] += g_bias;
      for (index_t i = 0; i < rank_; ++i) {
        const float* a = a_s + (f * rank_ + i) * n_cols;
        const float* c = c_s + (f * rank_ + i) * n_cols;
        float* ga = g_a.data() + (f * rank_ + i) * n_cols;
        float* gc = g_c.data() + (f * rank_ + i) * n_cols;
        for (index_t j = 0; j < n_cols; ++j) {
          ga[j] = g[j] * c[j];
          gc[j] = g[j] * a[j];
        }
      }
    }

    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    linalg::gemm(false, true, fr, patch, n_cols, 1.0f, g_a.data(), n_cols,
                 cols.data(), n_cols, 1.0f, q1_.grad.data(), patch);
    linalg::gemm(false, true, fr, patch, n_cols, 1.0f, g_c.data(), n_cols,
                 cols.data(), n_cols, 1.0f, q2_.grad.data(), patch);
    linalg::gemm(false, true, filters_, patch, n_cols, 1.0f, g_s, n_cols,
                 cols.data(), n_cols, 1.0f, w_.grad.data(), patch);
    linalg::gemm(true, false, patch, n_cols, fr, 1.0f, q1_.value.data(),
                 patch, g_a.data(), n_cols, 0.0f, grad_cols.data(), n_cols);
    linalg::gemm(true, false, patch, n_cols, fr, 1.0f, q2_.value.data(),
                 patch, g_c.data(), n_cols, 1.0f, grad_cols.data(), n_cols);
    linalg::gemm(true, false, patch, n_cols, filters_, 1.0f,
                 w_.value.data(), patch, g_s, n_cols, 1.0f,
                 grad_cols.data(), n_cols);
    nn::col2im(grad_cols.data(), h, w, geometry_,
               grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<nn::Parameter*> LowRankQuadConv2d::parameters() {
  return {&q1_, &q2_, &w_, &b_};
}

// ---------------------------------------------------------------------------
// GeneralQuadConv2d
// ---------------------------------------------------------------------------

GeneralQuadConv2d::GeneralQuadConv2d(index_t in_channels,
                                     index_t out_channels, index_t kernel,
                                     index_t stride, index_t padding,
                                     bool include_linear, Rng& rng,
                                     std::string name)
    : geometry_{in_channels, kernel, stride, padding},
      filters_(out_channels),
      include_linear_(include_linear),
      name_(std::move(name)) {
  const index_t patch = geometry_.patch_size();
  m_ = nn::Parameter(name_ + ".m", Tensor{Shape{filters_, patch, patch}});
  rng.fill_normal(m_.value, 0.0f, 1.0f / static_cast<float>(patch));
  m_.group = "quadratic_q";
  if (include_linear_) {
    w_ = nn::Parameter(name_ + ".w", Tensor{Shape{filters_, patch}});
    b_ = nn::Parameter(name_ + ".b", Tensor{Shape{filters_}});
    nn::kaiming_normal(w_.value, patch, rng);
    b_.decay = false;
  }
}

Shape GeneralQuadConv2d::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], geometry_.in_channels,
                name_ << ": channels");
  return Shape{input_shape[0], filters_,
               geometry_.out_extent(input_shape[2]),
               geometry_.out_extent(input_shape[3])};
}

Tensor GeneralQuadConv2d::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 4, name_ << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input.dim(1), geometry_.in_channels, name_ << ": channels");
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;

  Tensor out{Shape{n, filters_, oh, ow}};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> mcols(static_cast<std::size_t>(patch * n_cols));
  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    float* out_s = out.data() + s * filters_ * n_cols;
    for (index_t f = 0; f < filters_; ++f) {
      const float* m_f = m_.value.data() + f * patch * patch;
      // mcols = M · cols, then y_j = col_jᵀ (M col_j).
      linalg::gemm(false, false, patch, n_cols, patch, 1.0f, m_f, patch,
                   cols.data(), n_cols, 0.0f, mcols.data(), n_cols);
      float* o = out_s + f * n_cols;
      for (index_t j = 0; j < n_cols; ++j) {
        float acc = 0.0f;
        for (index_t p = 0; p < patch; ++p)
          acc += cols[static_cast<std::size_t>(p * n_cols + j)] *
                 mcols[static_cast<std::size_t>(p * n_cols + j)];
        o[j] = acc;
      }
      if (include_linear_) {
        const float* w_f = w_.value.data() + f * patch;
        const float bias = b_.value[f];
        for (index_t j = 0; j < n_cols; ++j) {
          float acc = bias;
          for (index_t p = 0; p < patch; ++p)
            acc += w_f[p] * cols[static_cast<std::size_t>(p * n_cols + j)];
          o[j] += acc;
        }
      }
    }
  }
  return out;
}

Tensor GeneralQuadConv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> msym_col(static_cast<std::size_t>(patch));
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> col_j(static_cast<std::size_t>(patch));

  for (index_t s = 0; s < n; ++s) {
    nn::im2col(input.data() + s * geometry_.in_channels * h * w, h, w,
               geometry_, cols.data());
    std::fill(grad_cols.begin(), grad_cols.end(), 0.0f);
    const float* g_s = grad_output.data() + s * filters_ * n_cols;
    for (index_t f = 0; f < filters_; ++f) {
      const float* m_f = m_.value.data() + f * patch * patch;
      float* gm_f = m_.grad.data() + f * patch * patch;
      const float* g = g_s + f * n_cols;
      for (index_t j = 0; j < n_cols; ++j) {
        const float gy = g[j];
        if (gy == 0.0f) continue;
        for (index_t p = 0; p < patch; ++p)
          col_j[static_cast<std::size_t>(p)] =
              cols[static_cast<std::size_t>(p * n_cols + j)];
        // dM += g · x xᵀ
        for (index_t p = 0; p < patch; ++p) {
          const float gxp = gy * col_j[static_cast<std::size_t>(p)];
          if (gxp != 0.0f)
            linalg::axpy(patch, gxp, col_j.data(), gm_f + p * patch);
        }
        // d(col) += g (M + Mᵀ) x
        linalg::gemv(false, patch, patch, 1.0f, m_f, patch, col_j.data(),
                     0.0f, msym_col.data());
        linalg::gemv(true, patch, patch, 1.0f, m_f, patch, col_j.data(),
                     1.0f, msym_col.data());
        for (index_t p = 0; p < patch; ++p)
          grad_cols[static_cast<std::size_t>(p * n_cols + j)] +=
              gy * msym_col[static_cast<std::size_t>(p)];
        if (include_linear_) {
          linalg::axpy(patch, gy, col_j.data(), w_.grad.data() + f * patch);
          const float* w_f = w_.value.data() + f * patch;
          for (index_t p = 0; p < patch; ++p)
            grad_cols[static_cast<std::size_t>(p * n_cols + j)] +=
                gy * w_f[p];
          b_.grad[f] += gy;
        }
      }
    }
    nn::col2im(grad_cols.data(), h, w, geometry_,
               grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<nn::Parameter*> GeneralQuadConv2d::parameters() {
  if (include_linear_) return {&m_, &w_, &b_};
  return {&m_};
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

index_t proposed_filters(const NeuronSpec& spec, index_t target_channels) {
  // Nearest rounding keeps the quadratic network's feature-map widths (and
  // with them its parameter count) comparable to the linear baseline's —
  // the sizing the paper's Fig. 4/5 deltas rest on (Sec. III-C: "fewer
  // neurons are required to obtain the original sizes of feature maps").
  const index_t per = spec.rank + 1;
  return std::max<index_t>(1, (target_channels + per / 2) / per);
}

index_t conv_out_channels(const NeuronSpec& spec, index_t target_channels) {
  if (spec.kind != NeuronKind::kProposed) return target_channels;
  return proposed_filters(spec, target_channels) * (spec.rank + 1);
}

nn::ModulePtr make_conv_neuron(const NeuronSpec& spec, index_t in_channels,
                               index_t target_channels, index_t kernel,
                               index_t stride, index_t padding, Rng& rng,
                               std::string name) {
  switch (spec.kind) {
    case NeuronKind::kLinear:
      return std::make_unique<nn::Conv2d>(in_channels, target_channels,
                                          kernel, stride, padding, rng,
                                          /*bias=*/false, std::move(name));
    case NeuronKind::kGeneral:
      return std::make_unique<GeneralQuadConv2d>(
          in_channels, target_channels, kernel, stride, padding,
          /*include_linear=*/true, rng, std::move(name));
    case NeuronKind::kPure:
      return std::make_unique<GeneralQuadConv2d>(
          in_channels, target_channels, kernel, stride, padding,
          /*include_linear=*/false, rng, std::move(name));
    case NeuronKind::kLowRank:
      return std::make_unique<LowRankQuadConv2d>(
          in_channels, target_channels, kernel, stride, padding, spec.rank,
          rng, std::move(name));
    case NeuronKind::kQuad1:
    case NeuronKind::kQuad2:
    case NeuronKind::kBuKarpatne:
      return std::make_unique<FactoredQuadConv2d>(
          in_channels, target_channels, kernel, stride, padding, spec.kind,
          rng, std::move(name));
    case NeuronKind::kKervolution:
      return std::make_unique<KervolutionConv2d>(
          in_channels, target_channels, kernel, stride, padding,
          spec.kerv_degree, spec.kerv_c, rng, std::move(name));
    case NeuronKind::kProposed: {
      const index_t filters = proposed_filters(spec, target_channels);
      return std::make_unique<ProposedQuadConv2d>(
          in_channels, filters, kernel, stride, padding, spec.rank, rng,
          spec.lambda_lr_scale, std::move(name));
    }
    case NeuronKind::kProposedSumOnly:
      // One output per neuron: a filter per requested channel.
      return std::make_unique<ProposedQuadConv2d>(
          in_channels, target_channels, kernel, stride, padding, spec.rank,
          rng, spec.lambda_lr_scale, std::move(name),
          /*emit_features=*/false);
  }
  QDNN_CHECK(false, "make_conv_neuron: unknown kind");
  return nullptr;
}

}  // namespace qdnn::quadratic
