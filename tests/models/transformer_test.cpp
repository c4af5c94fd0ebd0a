#include "models/transformer/transformer.h"

#include <gtest/gtest.h>

#include "decode_test_util.h"
#include "gradcheck_util.h"

namespace qdnn::models {
namespace {

using qdnn::testing::random_tensor;

TransformerConfig tiny_config(quadratic::NeuronSpec spec =
                                  quadratic::NeuronSpec::linear()) {
  return qdnn::testing::tiny_transformer_config(spec);
}

Tensor ids(std::vector<std::vector<index_t>> rows) {
  const index_t n = static_cast<index_t>(rows.size());
  const index_t t = static_cast<index_t>(rows[0].size());
  Tensor out{Shape{n, t}};
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < t; ++j)
      out.at(i, j) = static_cast<float>(rows[static_cast<std::size_t>(i)]
                                            [static_cast<std::size_t>(j)]);
  return out;
}

TEST(Transformer, ForwardShape) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const Tensor tgt = ids({{1, 9, 10}, {1, 11, 12}});
  const Tensor logits = model.forward_train(src, tgt, {4, 3});
  EXPECT_EQ(logits.shape(), Shape({2 * 3, 24}));
  EXPECT_TRUE(logits.all_finite());
}

TEST(Transformer, QuadraticProjectionsRun) {
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;  // divisible by rank+1=4 and heads=2
  Transformer model(config);
  const Tensor src = ids({{4, 5, 2}});
  const Tensor tgt = ids({{1, 6}});
  const Tensor logits = model.forward_train(src, tgt, {3});
  EXPECT_EQ(logits.shape(), Shape({2, 24}));
  EXPECT_TRUE(logits.all_finite());
}

// Causal mask: logits at position t must not depend on target tokens
// after t.
TEST(Transformer, CausalMaskBlocksFuture) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});
  const Tensor tgt_a = ids({{1, 7, 8, 9}});
  const Tensor tgt_b = ids({{1, 7, 8, 15}});  // differs only at position 3
  const Tensor la = model.forward_train(src, tgt_a, {4});
  const Tensor lb = model.forward_train(src, tgt_b, {4});
  // Positions 0..2 identical; position 3 may differ.
  for (index_t t = 0; t < 3; ++t)
    for (index_t v = 0; v < 24; ++v)
      EXPECT_NEAR(la.at(t, v), lb.at(t, v), 1e-5f) << "t=" << t;
}

// Padding mask: changing a source token beyond the declared length must
// not change the output.
TEST(Transformer, PaddingMaskIgnoresPadPositions) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = ids({{4, 5, 0, 0}});
  const Tensor src_b = ids({{4, 5, 9, 13}});  // garbage in padded slots
  const Tensor tgt = ids({{1, 7}});
  const Tensor la = model.forward_train(src_a, tgt, {2});
  const Tensor lb = model.forward_train(src_b, tgt, {2});
  EXPECT_LT(max_abs_diff(la, lb), 1e-5f);
}

TEST(Transformer, BackwardProducesFiniteGrads) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}});
  const Tensor tgt = ids({{1, 7, 8}});
  const Tensor logits = model.forward_train(src, tgt, {4});
  model.backward(random_tensor(logits.shape(), 1, -0.1f, 0.1f));
  for (nn::Parameter* p : model.parameters())
    EXPECT_TRUE(p->grad.all_finite()) << p->name;
}

TEST(Transformer, GradcheckSelectedParameters) {
  // Finite-difference spot check through the full encoder–decoder: uses
  // the projection-loss trick on logits.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 2}});
  const Tensor tgt = ids({{1, 6}});
  const std::vector<index_t> lens{3};

  Rng rng(2);
  Tensor logits = model.forward_train(src, tgt, lens);
  Tensor r{logits.shape()};
  rng.fill_uniform(r, -1.0f, 1.0f);
  auto loss = [&] {
    const Tensor y = model.forward_train(src, tgt, lens);
    double acc = 0.0;
    for (index_t i = 0; i < y.numel(); ++i)
      acc += static_cast<double>(y[i]) * r[i];
    return acc;
  };
  for (nn::Parameter* p : model.parameters()) p->zero_grad();
  (void)model.forward_train(src, tgt, lens);
  model.backward(r);

  // Check a few entries of several parameter tensors.
  int checked = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->numel() < 4) continue;
    for (index_t trial = 0; trial < 3; ++trial) {
      const index_t i = rng.uniform_int(p->numel());
      const float saved = p->value[i];
      const double eps = 1e-2;
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = loss();
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = loss();
      p->value[i] = saved;
      const double fd = (lp - lm) / (2 * eps);
      const double analytic = p->grad[i];
      const double diff = std::fabs(analytic - fd);
      EXPECT_LE(diff,
                0.02 + 0.08 * std::max(std::fabs(analytic), std::fabs(fd)))
          << p->name << "[" << i << "] analytic=" << analytic
          << " fd=" << fd;
      ++checked;
    }
    if (checked > 60) break;
  }
  EXPECT_GT(checked, 20);
}

TEST(Transformer, GreedyDecodeShapeAndDeterminism) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const auto out1 = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  const auto out2 = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_EQ(out1[0], out2[0]);
  EXPECT_EQ(out1[1], out2[1]);
  for (const auto& seq : out1) EXPECT_LE(seq.size(), 8u);
}

TEST(Transformer, ParameterCountDropsWithReducedProjDim) {
  // The Table II mechanism: the quadratic configuration narrows proj_dim,
  // cutting MHA parameters by >20% while keeping d_model.
  TransformerConfig base = tiny_config();
  Transformer baseline(base);
  TransformerConfig quad = tiny_config(quadratic::NeuronSpec::proposed(3));
  quad.proj_dim = 8;  // reduced width; divisible by 2 heads and rank+1=4
  Transformer quadratic_model(quad);
  EXPECT_LT(quadratic_model.num_parameters(), baseline.num_parameters());
}

// The paper's k = 9 at d_model 512: the output projection wo would need
// 512 outputs from neurons emitting 10 values each.  Construction fails
// up front and names the config field, not a layer deep inside.
TEST(Transformer, ValidatesProposedWidthRuleByField) {
  auto message_of = [](const TransformerConfig& config) -> std::string {
    try {
      Transformer model(config);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(9));
  config.d_model = 512;
  config.proj_dim = 400;
  EXPECT_NE(message_of(config).find("TransformerConfig.d_model 512 is not a "
                                    "multiple of spec.rank+1 = 10"),
            std::string::npos)
      << message_of(config);
  config.d_model = 80;
  config.proj_dim = 64;
  EXPECT_NE(message_of(config).find("TransformerConfig.proj_dim 64 is not a "
                                    "multiple of spec.rank+1 = 10"),
            std::string::npos)
      << message_of(config);
  config.proj_dim = 80;
  EXPECT_EQ(message_of(config), "");
}

TEST(Transformer, RejectsIndivisibleProjDim) {
  TransformerConfig config = tiny_config();
  config.proj_dim = 15;  // not divisible by 2 heads
  EXPECT_THROW(Transformer{config}, std::runtime_error);
}

}  // namespace
}  // namespace qdnn::models
