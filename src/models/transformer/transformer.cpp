#include "models/transformer/transformer.h"

#include <cmath>
#include <cstring>

#include "runtime/decode_session.h"

namespace qdnn::models {

// ---------------------------------------------------------------------------
// EncoderLayer
// ---------------------------------------------------------------------------

EncoderLayer::EncoderLayer(const TransformerConfig& config, Rng& rng,
                           std::string name)
    : name_(std::move(name)),
      d_model_(config.d_model),
      self_attn_(config.d_model, config.n_heads, config.proj_dim,
                 config.spec, rng, name_ + ".self"),
      drop1_(config.dropout, rng, name_ + ".drop1"),
      ln1_(config.d_model, 1e-5f, name_ + ".ln1"),
      ffn_(config.d_model, config.d_ff, rng, name_ + ".ffn"),
      drop2_(config.dropout, rng, name_ + ".drop2"),
      ln2_(config.d_model, 1e-5f, name_ + ".ln2") {}

Tensor EncoderLayer::forward(const Tensor& x, index_t n, index_t t,
                             const std::vector<index_t>& lengths) {
  Tensor a = self_attn_.forward(x, x, n, t, t, /*causal=*/false, lengths);
  a = drop1_.forward(a);
  a += x;
  Tensor x1 = ln1_.forward(a);
  Tensor f = ffn_.forward(x1);
  f = drop2_.forward(f);
  f += x1;
  return ln2_.forward(f);
}

Tensor EncoderLayer::forward(const Tensor& x) {
  QDNN_CHECK(x.rank() == 3 && x.dim(2) == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  const index_t n = x.dim(0), t = x.dim(1);
  return forward(x.reshaped(Shape{n * t, d_model_}), n, t, {})
      .reshaped(Shape{n, t, d_model_});
}

Tensor EncoderLayer::backward(const Tensor& grad) {
  if (grad.rank() == 3) {
    const index_t n = grad.dim(0), t = grad.dim(1);
    return backward(grad.reshaped(Shape{n * t, d_model_}))
        .reshaped(Shape{n, t, d_model_});
  }
  Tensor g2 = ln2_.backward(grad);
  Tensor g_f = drop2_.backward(g2);
  Tensor g_x1 = ffn_.backward(g_f);
  g_x1 += g2;  // residual branch
  Tensor g1 = ln1_.backward(g_x1);
  Tensor g_a = drop1_.backward(g1);
  auto [gq, gkv] = self_attn_.backward_qkv(g_a);
  gq += gkv;
  gq += g1;  // residual branch
  return gq;
}

Shape EncoderLayer::output_shape(const Shape& input_shape) const {
  QDNN_CHECK(input_shape.rank() == 3 && input_shape[2] == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  return input_shape;
}

bool EncoderLayer::supports_forward_into() const {
  return self_attn_.supports_forward_into() && ffn_.supports_forward_into();
}

void EncoderLayer::forward_into(const ConstTensorView& input,
                                const TensorView& output, Workspace& ws) {
  forward_masked_into(input, output, /*lengths=*/nullptr, ws);
}

void EncoderLayer::forward_masked_into(const ConstTensorView& input,
                                       const TensorView& output,
                                       const index_t* lengths,
                                       Workspace& ws) {
  // The monolithic twin of the flatten_into stage plan plus per-sample
  // key-padding masks — same kernels, same operation order as the
  // training forward (dropout is identity in eval mode).
  QDNN_CHECK(input.rank() == 3 && input.dim(2) == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  QDNN_CHECK(output.shape() == input.shape(),
             name_ << ": bad output view " << output.shape());
  const index_t count = input.numel();

  const TensorView a = ws.take(input.shape());
  self_attn_.self_forward_into(input, a, lengths, ws);
  const TensorView r1 = ws.take(input.shape());
  for (index_t i = 0; i < count; ++i) r1[i] = a[i] + input[i];
  const TensorView x1 = ws.take(input.shape());
  ln1_.forward_into(r1, x1, ws);

  const TensorView f = ws.take(input.shape());
  ffn_.forward_into(x1, f, ws);
  const TensorView r2 = ws.take(input.shape());
  for (index_t i = 0; i < count; ++i) r2[i] = f[i] + x1[i];
  ln2_.forward_into(r2, output, ws);
}

void EncoderLayer::flatten_into(std::vector<nn::PipelineStage>& stages) {
  // Stage plan over [N, T, D] boundaries, mirroring forward() exactly
  // (dropout stages are omitted: identity in eval mode):
  //   attn(in) → (+in) → ln1 → fc1 → relu → fc2 → (+ln1-out) → ln2
  const auto in = static_cast<index_t>(stages.size()) - 1;
  self_attn_.flatten_into(stages);
  stages.push_back(nn::PipelineStage{
      nullptr, static_cast<index_t>(stages.size()) - 1, in});  // a + x
  ln1_.flatten_into(stages);
  const auto x1 = static_cast<index_t>(stages.size()) - 1;
  ffn_.flatten_into(stages);
  stages.push_back(nn::PipelineStage{
      nullptr, static_cast<index_t>(stages.size()) - 1, x1});  // f + x1
  ln2_.flatten_into(stages);
}

void EncoderLayer::freeze() {
  self_attn_.freeze();
  drop1_.freeze();
  ln1_.freeze();
  ffn_.freeze();
  drop2_.freeze();
  ln2_.freeze();
  Module::freeze();
}

void EncoderLayer::unfreeze() {
  self_attn_.unfreeze();
  drop1_.unfreeze();
  ln1_.unfreeze();
  ffn_.unfreeze();
  drop2_.unfreeze();
  ln2_.unfreeze();
  Module::unfreeze();
}

std::vector<nn::Parameter*> EncoderLayer::parameters() {
  std::vector<nn::Parameter*> params = self_attn_.parameters();
  for (nn::Parameter* p : ln1_.parameters()) params.push_back(p);
  for (nn::Parameter* p : ffn_.parameters()) params.push_back(p);
  for (nn::Parameter* p : ln2_.parameters()) params.push_back(p);
  return params;
}

void EncoderLayer::set_training(bool training) {
  nn::Module::set_training(training);
  self_attn_.set_training(training);
  drop1_.set_training(training);
  ln1_.set_training(training);
  ffn_.set_training(training);
  drop2_.set_training(training);
  ln2_.set_training(training);
}

// ---------------------------------------------------------------------------
// DecoderLayer
// ---------------------------------------------------------------------------

DecoderLayer::DecoderLayer(const TransformerConfig& config, Rng& rng,
                           std::string name)
    : name_(std::move(name)),
      d_model_(config.d_model),
      self_attn_(config.d_model, config.n_heads, config.proj_dim,
                 config.spec, rng, name_ + ".self"),
      drop1_(config.dropout, rng, name_ + ".drop1"),
      ln1_(config.d_model, 1e-5f, name_ + ".ln1"),
      cross_attn_(config.d_model, config.n_heads, config.proj_dim,
                  config.spec, rng, name_ + ".cross"),
      drop2_(config.dropout, rng, name_ + ".drop2"),
      ln2_(config.d_model, 1e-5f, name_ + ".ln2"),
      ffn_(config.d_model, config.d_ff, rng, name_ + ".ffn"),
      drop3_(config.dropout, rng, name_ + ".drop3"),
      ln3_(config.d_model, 1e-5f, name_ + ".ln3"),
      self_step_(self_attn_, name_ + ".self_step"),
      cross_step_(cross_attn_, name_ + ".cross_step") {}

Tensor DecoderLayer::forward(const Tensor& y, const Tensor& enc_out,
                             index_t n, index_t tt, index_t ts,
                             const std::vector<index_t>& src_lengths) {
  Tensor a = self_attn_.forward(y, y, n, tt, tt, /*causal=*/true, {});
  a = drop1_.forward(a);
  a += y;
  Tensor y1 = ln1_.forward(a);
  Tensor c = cross_attn_.forward(y1, enc_out, n, tt, ts, /*causal=*/false,
                                 src_lengths);
  c = drop2_.forward(c);
  c += y1;
  Tensor y2 = ln2_.forward(c);
  Tensor f = ffn_.forward(y2);
  f = drop3_.forward(f);
  f += y2;
  return ln3_.forward(f);
}

std::pair<Tensor, Tensor> DecoderLayer::backward_dual(const Tensor& grad) {
  Tensor g3 = ln3_.backward(grad);
  Tensor g_f = drop3_.backward(g3);
  Tensor g_y2 = ffn_.backward(g_f);
  g_y2 += g3;
  Tensor g2 = ln2_.backward(g_y2);
  Tensor g_c = drop2_.backward(g2);
  auto [gq_c, g_enc] = cross_attn_.backward_qkv(g_c);
  gq_c += g2;
  Tensor g1 = ln1_.backward(gq_c);
  Tensor g_a = drop1_.backward(g1);
  auto [gq_s, gkv_s] = self_attn_.backward_qkv(g_a);
  gq_s += gkv_s;
  gq_s += g1;
  return {std::move(gq_s), std::move(g_enc)};
}

Tensor DecoderLayer::forward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": a decoder layer needs the encoder context "
                             "— use forward(y, enc_out, ...) for training "
                             "or a runtime::DecodeSession for serving");
  return {};
}

Tensor DecoderLayer::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": use backward_dual (returns {grad_y, "
                             "grad_enc_out})");
  return {};
}

Shape DecoderLayer::output_shape(const Shape& input_shape) const {
  QDNN_CHECK(input_shape.rank() == 2 && input_shape[1] == d_model_,
             name_ << ": expected [N, " << d_model_ << "] step input");
  return input_shape;
}

bool DecoderLayer::supports_forward_into() const {
  return self_attn_.supports_forward_into() &&
         cross_attn_.supports_forward_into() &&
         ffn_.supports_forward_into();
}

void DecoderLayer::forward_into(const ConstTensorView& input,
                                const TensorView& output, Workspace& ws) {
  // One KV-cached decode step on [N, D] — the monolithic twin of the
  // flatten_into stage plan (same kernels, same operation order as the
  // teacher-forced forward; dropout is identity in eval mode).
  QDNN_CHECK(input.rank() == 2 && input.dim(1) == d_model_,
             name_ << ": expected [N, " << d_model_ << "] step input");
  QDNN_CHECK(output.shape() == input.shape(),
             name_ << ": bad output view " << output.shape());
  const index_t n = input.dim(0);
  const Shape row_shape{n, d_model_};
  const index_t count = n * d_model_;

  const TensorView a = ws.take(row_shape);
  self_step_.forward_into(input, a, ws);
  const TensorView r1 = ws.take(row_shape);
  for (index_t i = 0; i < count; ++i) r1[i] = a[i] + input[i];
  const TensorView y1 = ws.take(row_shape);
  ln1_.forward_into(r1, y1, ws);

  const TensorView c = ws.take(row_shape);
  cross_step_.forward_into(y1, c, ws);
  const TensorView r2 = ws.take(row_shape);
  for (index_t i = 0; i < count; ++i) r2[i] = c[i] + y1[i];
  const TensorView y2 = ws.take(row_shape);
  ln2_.forward_into(r2, y2, ws);

  const TensorView f = ws.take(row_shape);
  ffn_.forward_into(y2, f, ws);
  const TensorView r3 = ws.take(row_shape);
  for (index_t i = 0; i < count; ++i) r3[i] = f[i] + y2[i];
  ln3_.forward_into(r3, output, ws);
}

void DecoderLayer::flatten_into(std::vector<nn::PipelineStage>& stages) {
  // Step-stage plan over [N, D] boundaries, mirroring forward() exactly
  // (dropout stages are omitted: identity in eval mode):
  //   self_step(in) → (+in) → ln1 → cross_step → (+y1) → ln2
  //   → fc1 → relu → fc2 → (+y2) → ln3
  const auto in = static_cast<index_t>(stages.size()) - 1;
  self_step_.flatten_into(stages);
  stages.push_back(nn::PipelineStage{
      nullptr, static_cast<index_t>(stages.size()) - 1, in});  // a + y
  ln1_.flatten_into(stages);
  const auto y1 = static_cast<index_t>(stages.size()) - 1;
  cross_step_.flatten_into(stages);
  stages.push_back(nn::PipelineStage{
      nullptr, static_cast<index_t>(stages.size()) - 1, y1});  // c + y1
  ln2_.flatten_into(stages);
  const auto y2 = static_cast<index_t>(stages.size()) - 1;
  ffn_.flatten_into(stages);
  stages.push_back(nn::PipelineStage{
      nullptr, static_cast<index_t>(stages.size()) - 1, y2});  // f + y2
  ln3_.flatten_into(stages);
}

void DecoderLayer::freeze() {
  // Mirrors the encoder-layer audit: every child packs its constant GEMM
  // operands and releases training caches, so no stale scratch survives
  // under a serving process.
  self_attn_.freeze();
  drop1_.freeze();
  ln1_.freeze();
  cross_attn_.freeze();
  drop2_.freeze();
  ln2_.freeze();
  ffn_.freeze();
  drop3_.freeze();
  ln3_.freeze();
  Module::freeze();
}

void DecoderLayer::unfreeze() {
  self_attn_.unfreeze();
  drop1_.unfreeze();
  ln1_.unfreeze();
  cross_attn_.unfreeze();
  drop2_.unfreeze();
  ln2_.unfreeze();
  ffn_.unfreeze();
  drop3_.unfreeze();
  ln3_.unfreeze();
  Module::unfreeze();
}

std::vector<nn::Parameter*> DecoderLayer::parameters() {
  std::vector<nn::Parameter*> params = self_attn_.parameters();
  for (nn::Parameter* p : ln1_.parameters()) params.push_back(p);
  for (nn::Parameter* p : cross_attn_.parameters()) params.push_back(p);
  for (nn::Parameter* p : ln2_.parameters()) params.push_back(p);
  for (nn::Parameter* p : ffn_.parameters()) params.push_back(p);
  for (nn::Parameter* p : ln3_.parameters()) params.push_back(p);
  return params;
}

void DecoderLayer::set_training(bool training) {
  nn::Module::set_training(training);
  self_attn_.set_training(training);
  drop1_.set_training(training);
  ln1_.set_training(training);
  cross_attn_.set_training(training);
  drop2_.set_training(training);
  ln2_.set_training(training);
  ffn_.set_training(training);
  drop3_.set_training(training);
  ln3_.set_training(training);
}

// ---------------------------------------------------------------------------
// Transformer
// ---------------------------------------------------------------------------

namespace {

// Up-front width rules, named by config field, so a bad config fails
// before any layer is built instead of deep inside one.  The attention
// projections apply `spec` to outputs of width proj_dim (wq/wk/wv) and
// d_model (wo); a proposed neuron emits rank+1 values, so both widths
// must be multiples of it.
const TransformerConfig& validated(const TransformerConfig& config) {
  const index_t per = config.spec.outputs_per_neuron();
  auto check_width = [per](const char* field, index_t width) {
    QDNN_CHECK(width % per == 0,
               "TransformerConfig." << field << " " << width
                                    << " is not a multiple of spec.rank+1 = "
                                    << per);
  };
  check_width("proj_dim", config.proj_dim);
  check_width("d_model", config.d_model);
  return config;
}

}  // namespace

Transformer::Transformer(const TransformerConfig& config)
    : config_(validated(config)),
      rng_(config.seed),
      pos_(config.max_len, config.d_model) {
  src_embed_ = std::make_unique<nn::Embedding>(config.src_vocab,
                                               config.d_model, rng_,
                                               "src_embed");
  tgt_embed_ = std::make_unique<nn::Embedding>(config.tgt_vocab,
                                               config.d_model, rng_,
                                               "tgt_embed");
  for (index_t l = 0; l < config.n_layers; ++l) {
    encoder_.push_back(std::make_unique<EncoderLayer>(
        config, rng_, "enc" + std::to_string(l)));
    decoder_.push_back(std::make_unique<DecoderLayer>(
        config, rng_, "dec" + std::to_string(l)));
  }
  out_proj_ = std::make_unique<nn::Linear>(config.d_model, config.tgt_vocab,
                                           rng_, true, "out_proj");
}

Tensor Transformer::encode(const Tensor& src_ids,
                           const std::vector<index_t>& src_lengths) {
  const index_t n = src_ids.dim(0), ts = src_ids.dim(1);
  Tensor x = src_embed_->forward(src_ids);
  x = x.reshaped(Shape{n * ts, config_.d_model});
  x *= std::sqrt(static_cast<float>(config_.d_model));
  pos_.add_to(x, n, ts);
  for (auto& layer : encoder_) x = layer->forward(x, n, ts, src_lengths);
  return x;
}

Tensor Transformer::decode(const Tensor& tgt_in_ids, const Tensor& enc_out,
                           index_t ts,
                           const std::vector<index_t>& src_lengths) {
  const index_t n = tgt_in_ids.dim(0), tt = tgt_in_ids.dim(1);
  Tensor y = tgt_embed_->forward(tgt_in_ids);
  y = y.reshaped(Shape{n * tt, config_.d_model});
  y *= std::sqrt(static_cast<float>(config_.d_model));
  pos_.add_to(y, n, tt);
  for (auto& layer : decoder_)
    y = layer->forward(y, enc_out, n, tt, ts, src_lengths);
  return out_proj_->forward(y);
}

Tensor Transformer::forward_train(const Tensor& src_ids,
                                  const Tensor& tgt_in_ids,
                                  const std::vector<index_t>& src_lengths) {
  QDNN_CHECK_EQ(src_ids.dim(0), tgt_in_ids.dim(0),
                "transformer: batch mismatch");
  n_ = src_ids.dim(0);
  ts_ = src_ids.dim(1);
  tt_ = tgt_in_ids.dim(1);
  src_lengths_ = src_lengths;
  const Tensor enc_out = encode(src_ids, src_lengths);
  return decode(tgt_in_ids, enc_out, ts_, src_lengths);
}

void Transformer::backward(const Tensor& grad_logits) {
  QDNN_CHECK(n_ > 0, "transformer: backward before forward_train");
  Tensor g_y = out_proj_->backward(grad_logits);

  // Decoder stack (reverse); accumulate encoder-output gradient across all
  // decoder layers' cross-attention.
  Tensor g_enc{Shape{n_ * ts_, config_.d_model}};
  for (auto it = decoder_.rbegin(); it != decoder_.rend(); ++it) {
    auto [g_y_next, g_enc_layer] = (*it)->backward_dual(g_y);
    g_y = std::move(g_y_next);
    g_enc += g_enc_layer;
  }
  // Back through the target embedding (+ scale; positional table is
  // constant).
  g_y *= std::sqrt(static_cast<float>(config_.d_model));
  tgt_embed_->backward(g_y.reshaped(Shape{n_, tt_, config_.d_model}));

  // Encoder stack (reverse).
  for (auto it = encoder_.rbegin(); it != encoder_.rend(); ++it)
    g_enc = (*it)->backward(g_enc);
  g_enc *= std::sqrt(static_cast<float>(config_.d_model));
  src_embed_->backward(g_enc.reshaped(Shape{n_, ts_, config_.d_model}));
}

std::vector<std::vector<index_t>> Transformer::greedy_decode(
    const Tensor& src_ids, const std::vector<index_t>& src_lengths,
    index_t bos, index_t eos, index_t max_steps) {
  // Serve through a KV-cached session: O(T) decoder work per emitted
  // token instead of re-running the whole prefix.  freeze is off so this
  // convenience wrapper never mutates the model's packing state (results
  // are bit-identical either way); warm-up is skipped because the session
  // lives for exactly one batch.
  if (max_steps == 0)  // degenerate budget: n empty sequences, no work
    return std::vector<std::vector<index_t>>(
        static_cast<std::size_t>(src_ids.dim(0)));
  set_training(false);
  runtime::DecodeSessionConfig sc;
  sc.max_batch = src_ids.dim(0);
  sc.max_steps = max_steps;
  sc.max_src = src_ids.dim(1);  // caches sized for exactly this batch
  sc.freeze = false;
  sc.warmup = false;
  runtime::DecodeSession session(*this, sc);
  session.prime(src_ids, src_lengths);
  return session.generate(bos, eos);
}

std::vector<std::vector<index_t>> Transformer::greedy_decode_reference(
    const Tensor& src_ids, const std::vector<index_t>& src_lengths,
    index_t bos, index_t eos, index_t max_steps) {
  const index_t n = src_ids.dim(0);
  const index_t ts = src_ids.dim(1);
  // bos fills position 0, so step s embeds target position s: the deepest
  // step embeds position max_steps − 1 and max_steps may equal max_len
  // exactly (the implicit-bos slot does not cost a position).
  QDNN_CHECK(max_steps >= 0 && max_steps <= config_.max_len,
             "greedy_decode: max_steps " << max_steps << " outside [0, "
                                         << config_.max_len
                                         << "] (max_len)");
  if (max_steps == 0)  // degenerate budget: n empty sequences, no work
    return std::vector<std::vector<index_t>>(static_cast<std::size_t>(n));
  set_training(false);
  const Tensor enc_out = encode(src_ids, src_lengths);

  std::vector<std::vector<index_t>> outputs(static_cast<std::size_t>(n));
  // Growing teacher prefixes, re-decoded each step (O(T²) per sequence).
  // Rows that emitted eos are compacted out of the batch — finished rows
  // pay nothing, and the step cost tracks the *active* rows only.  The
  // gathered encoder rows / lengths are rebuilt only when the active set
  // actually shrinks (and not at all while every row is live).
  std::vector<std::vector<index_t>> prefix(static_cast<std::size_t>(n),
                                           {bos});
  std::vector<index_t> active(static_cast<std::size_t>(n));
  for (index_t s = 0; s < n; ++s) active[static_cast<std::size_t>(s)] = s;
  Tensor enc_act;
  std::vector<index_t> lens_act;
  bool gather_stale = true;

  for (index_t step = 0; step < max_steps && !active.empty(); ++step) {
    const index_t tt = step + 1;
    const auto na = static_cast<index_t>(active.size());
    Tensor tgt{Shape{na, tt}};
    for (index_t i = 0; i < na; ++i) {
      const index_t s = active[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < tt; ++j)
        tgt.at(i, j) =
            static_cast<float>(prefix[static_cast<std::size_t>(s)]
                               [static_cast<std::size_t>(j)]);
    }
    const bool all_live = na == n;
    if (!all_live && gather_stale) {
      enc_act = Tensor{Shape{na * ts, config_.d_model}};
      lens_act.clear();
      for (index_t i = 0; i < na; ++i) {
        const index_t s = active[static_cast<std::size_t>(i)];
        std::memcpy(enc_act.data() + i * ts * config_.d_model,
                    enc_out.data() + s * ts * config_.d_model,
                    static_cast<std::size_t>(ts * config_.d_model) *
                        sizeof(float));
        if (!src_lengths.empty())
          lens_act.push_back(src_lengths[static_cast<std::size_t>(s)]);
      }
      gather_stale = false;
    }
    const Tensor logits = decode(tgt, all_live ? enc_out : enc_act, ts,
                                 all_live ? src_lengths : lens_act);
    std::vector<index_t> still_active;
    still_active.reserve(active.size());
    for (index_t i = 0; i < na; ++i) {
      const index_t s = active[static_cast<std::size_t>(i)];
      const float* row =
          logits.data() + ((i * tt) + (tt - 1)) * config_.tgt_vocab;
      index_t best = 0;
      for (index_t v = 1; v < config_.tgt_vocab; ++v)
        if (row[v] > row[best]) best = v;
      if (best == eos) continue;  // finished: drops out of the batch
      outputs[static_cast<std::size_t>(s)].push_back(best);
      prefix[static_cast<std::size_t>(s)].push_back(best);
      still_active.push_back(s);
    }
    if (still_active.size() != active.size()) gather_stale = true;
    active.swap(still_active);
  }
  return outputs;
}

std::vector<nn::Parameter*> Transformer::parameters() {
  std::vector<nn::Parameter*> params = src_embed_->parameters();
  for (nn::Parameter* p : tgt_embed_->parameters()) params.push_back(p);
  for (auto& layer : encoder_)
    for (nn::Parameter* p : layer->parameters()) params.push_back(p);
  for (auto& layer : decoder_)
    for (nn::Parameter* p : layer->parameters()) params.push_back(p);
  for (nn::Parameter* p : out_proj_->parameters()) params.push_back(p);
  return params;
}

void Transformer::set_training(bool training) {
  src_embed_->set_training(training);
  tgt_embed_->set_training(training);
  for (auto& layer : encoder_) layer->set_training(training);
  for (auto& layer : decoder_) layer->set_training(training);
  out_proj_->set_training(training);
}

void Transformer::freeze() {
  src_embed_->freeze();
  tgt_embed_->freeze();
  for (auto& layer : encoder_) layer->freeze();
  for (auto& layer : decoder_) layer->freeze();
  out_proj_->freeze();
}

void Transformer::unfreeze() {
  src_embed_->unfreeze();
  tgt_embed_->unfreeze();
  for (auto& layer : encoder_) layer->unfreeze();
  for (auto& layer : decoder_) layer->unfreeze();
  out_proj_->unfreeze();
}

index_t Transformer::num_parameters() {
  index_t n = 0;
  for (nn::Parameter* p : parameters()) n += p->numel();
  return n;
}

// ---------------------------------------------------------------------------
// TransformerEncoder
// ---------------------------------------------------------------------------

TransformerEncoder::TransformerEncoder(Transformer& model)
    : model_(&model), scale_pos_(model.positional(), "enc_pos_scale") {}

Tensor TransformerEncoder::forward(const Tensor& src_ids) {
  QDNN_CHECK_EQ(src_ids.rank(), 2, name() << ": expected [N, T] ids");
  const index_t n = src_ids.dim(0), t = src_ids.dim(1);
  // The exact training path with full-length (unpadded) sequences.
  return model_->encode(src_ids, {})
      .reshaped(Shape{n, t, model_->config().d_model});
}

Tensor TransformerEncoder::backward(const Tensor&) {
  QDNN_CHECK(false, name() << ": serving facade — train through "
                              "Transformer::forward_train/backward");
  return {};
}

Shape TransformerEncoder::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 2, name() << ": expected [N, T] ids");
  QDNN_CHECK(input_shape[1] <= model_->config().max_len,
             name() << ": sequence length " << input_shape[1]
                    << " exceeds max_len " << model_->config().max_len);
  return Shape{input_shape[0], input_shape[1], model_->config().d_model};
}

bool TransformerEncoder::supports_forward_into() const {
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    if (!model_->encoder_layer(l).supports_forward_into()) return false;
  return true;
}

void TransformerEncoder::forward_into(const ConstTensorView& input,
                                      const TensorView& output,
                                      Workspace& ws) {
  encode_into(input, output, /*src_lengths=*/nullptr, ws);
}

void TransformerEncoder::encode_into(const ConstTensorView& src_ids,
                                     const TensorView& output,
                                     const index_t* src_lengths,
                                     Workspace& ws) {
  QDNN_CHECK_EQ(src_ids.rank(), 2, name() << ": expected [N, T] ids");
  const index_t n = src_ids.dim(0), t = src_ids.dim(1);
  QDNN_CHECK(t <= model_->config().max_len,
             name() << ": sequence length " << t << " exceeds max_len "
                    << model_->config().max_len);
  const Shape act_shape{n, t, model_->config().d_model};
  QDNN_CHECK(output.shape() == act_shape,
             name() << ": bad output view " << output.shape());

  // embed → scale+positional → masked block per layer, every activation
  // in the caller's workspace.  The last layer writes `output` directly.
  const index_t layers = model_->num_encoder_layers();
  const TensorView embedded =
      layers == 0 ? output : ws.take(act_shape);
  {
    const TensorView raw = ws.take(act_shape);
    model_->src_embedding().forward_into(src_ids, raw, ws);
    scale_pos_.forward_into(raw, embedded, ws);
  }
  ConstTensorView cur(embedded.shape(), embedded.data());
  for (index_t l = 0; l < layers; ++l) {
    const TensorView dst = l + 1 == layers ? output : ws.take(act_shape);
    model_->encoder_layer(l).forward_masked_into(cur, dst, src_lengths, ws);
    cur = ConstTensorView(dst.shape(), dst.data());
  }
}

void TransformerEncoder::flatten_into(std::vector<nn::PipelineStage>& stages) {
  model_->src_embedding().flatten_into(stages);
  scale_pos_.flatten_into(stages);
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    model_->encoder_layer(l).flatten_into(stages);
}

void TransformerEncoder::freeze() {
  model_->src_embedding().freeze();
  scale_pos_.freeze();
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    model_->encoder_layer(l).freeze();
  Module::freeze();
}

void TransformerEncoder::unfreeze() {
  model_->src_embedding().unfreeze();
  scale_pos_.unfreeze();
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    model_->encoder_layer(l).unfreeze();
  Module::unfreeze();
}

std::vector<nn::Parameter*> TransformerEncoder::parameters() {
  std::vector<nn::Parameter*> params =
      model_->src_embedding().parameters();
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    for (nn::Parameter* p : model_->encoder_layer(l).parameters())
      params.push_back(p);
  return params;
}

void TransformerEncoder::set_training(bool training) {
  nn::Module::set_training(training);
  model_->src_embedding().set_training(training);
  for (index_t l = 0; l < model_->num_encoder_layers(); ++l)
    model_->encoder_layer(l).set_training(training);
}

}  // namespace qdnn::models
