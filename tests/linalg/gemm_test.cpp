#include "linalg/gemm.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace qdnn::linalg {
namespace {

// Naive reference used to validate the blocked kernel.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c{Shape{m, n}};
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

Tensor random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{Shape{rows, cols}};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

TEST(Gemm, MatchesNaiveSmall) {
  const Tensor a = random_matrix(3, 4, 1);
  const Tensor b = random_matrix(4, 5, 2);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-5f);
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Tensor a = random_matrix(m, k, 10 + m);
  const Tensor b = random_matrix(k, n, 20 + n);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-4f)
      << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 3},
                      std::tuple{5, 1, 5}, std::tuple{17, 13, 11},
                      std::tuple{64, 64, 64}, std::tuple{65, 70, 3},
                      std::tuple{128, 300, 9}, std::tuple{33, 257, 65}));

TEST(Gemm, TransposedAMatchesExplicit) {
  const Tensor a = random_matrix(6, 4, 3);  // will be used as aᵀ
  const Tensor b = random_matrix(6, 5, 4);
  const Tensor c = matmul_tn(a, b);  // [4, 5]
  Tensor at{Shape{4, 6}};
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  EXPECT_LT(max_abs_diff(c, naive_matmul(at, b)), 1e-5f);
}

TEST(Gemm, TransposedBMatchesExplicit) {
  const Tensor a = random_matrix(3, 4, 5);
  const Tensor b = random_matrix(6, 4, 6);  // used as bᵀ
  const Tensor c = matmul_nt(a, b);  // [3, 6]
  Tensor bt{Shape{4, 6}};
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a, bt)), 1e-5f);
}

TEST(Gemm, DoubleTransposed) {
  const Tensor a = random_matrix(4, 3, 7);   // aᵀ: [3, 4]
  const Tensor b = random_matrix(5, 4, 8);   // bᵀ: [4, 5]
  Tensor c{Shape{3, 5}};
  gemm(true, true, 3, 5, 4, 1.0f, a.data(), 3, b.data(), 4, 0.0f, c.data(),
       5);
  Tensor at{Shape{3, 4}}, bt{Shape{4, 5}};
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  EXPECT_LT(max_abs_diff(c, naive_matmul(at, bt)), 1e-5f);
}

TEST(Gemm, AlphaBetaSemantics) {
  const Tensor a = random_matrix(2, 3, 9);
  const Tensor b = random_matrix(3, 2, 10);
  Tensor c{Shape{2, 2}, 1.0f};
  // c = 2*a*b + 3*c
  gemm(false, false, 2, 2, 3, 2.0f, a.data(), 3, b.data(), 2, 3.0f,
       c.data(), 2);
  const Tensor ref = naive_matmul(a, b);
  for (index_t i = 0; i < 4; ++i)
    EXPECT_NEAR(c[i], 2.0f * ref[i] + 3.0f, 1e-5f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  const Tensor a = random_matrix(2, 2, 11);
  const Tensor b = random_matrix(2, 2, 12);
  Tensor c{Shape{2, 2}, std::numeric_limits<float>::quiet_NaN()};
  gemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f,
       c.data(), 2);
  EXPECT_TRUE(c.all_finite());
}

TEST(Gemm, ShapeMismatchThrows) {
  const Tensor a = random_matrix(2, 3, 13);
  const Tensor b = random_matrix(4, 2, 14);
  EXPECT_THROW(matmul(a, b), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Degenerate and parameter edge cases: k == 0 must act as a pure C-scale
// for every beta, and alpha/beta semantics must hold under all four
// transpose combinations.
// ---------------------------------------------------------------------------

TEST(Gemm, KZeroScalesCByBeta) {
  for (float beta : {0.0f, 1.0f, 0.5f}) {
    Tensor c{Shape{2, 3}, 4.0f};
    // a/b pointers are irrelevant at k == 0 — they must not be read.
    gemm(false, false, 2, 3, 0, 1.0f, nullptr, 1, nullptr, 3, beta,
         c.data(), 3);
    for (index_t i = 0; i < c.numel(); ++i)
      EXPECT_FLOAT_EQ(c[i], 4.0f * beta) << "beta=" << beta;
  }
}

TEST(Gemm, KZeroWithBetaZeroClearsNaNs) {
  Tensor c{Shape{2, 2}, std::numeric_limits<float>::quiet_NaN()};
  gemm(true, true, 2, 2, 0, 1.0f, nullptr, 2, nullptr, 2, 0.0f, c.data(),
       2);
  for (index_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

class GemmTransposeCombos
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeCombos, AlphaBetaAgainstNaive) {
  const auto [trans_a, trans_b] = GetParam();
  const index_t m = 4, n = 5, k = 3;
  // Stored layouts: op(A) is [m,k], op(B) is [k,n].
  const Tensor a = trans_a ? random_matrix(k, m, 31) : random_matrix(m, k, 31);
  const Tensor b = trans_b ? random_matrix(n, k, 32) : random_matrix(k, n, 32);
  Tensor at{Shape{m, k}}, bt{Shape{k, n}};
  for (index_t i = 0; i < m; ++i)
    for (index_t p = 0; p < k; ++p)
      at.at(i, p) = trans_a ? a.at(p, i) : a.at(i, p);
  for (index_t p = 0; p < k; ++p)
    for (index_t j = 0; j < n; ++j)
      bt.at(p, j) = trans_b ? b.at(j, p) : b.at(p, j);
  const Tensor ref = naive_matmul(at, bt);

  for (float beta : {0.0f, 1.0f, 0.5f}) {
    Tensor c{Shape{m, n}, 2.0f};
    gemm(trans_a, trans_b, m, n, k, 1.5f, a.data(), a.dim(1), b.data(),
         b.dim(1), beta, c.data(), n);
    for (index_t i = 0; i < c.numel(); ++i)
      EXPECT_NEAR(c[i], 1.5f * ref[i] + beta * 2.0f, 1e-5f)
          << "trans_a=" << trans_a << " trans_b=" << trans_b
          << " beta=" << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GemmTransposeCombos,
    ::testing::Values(std::tuple{false, false}, std::tuple{false, true},
                      std::tuple{true, false}, std::tuple{true, true}));

TEST(Gemm, ScratchOverloadMatchesAllocatingPath) {
  const Tensor a = random_matrix(6, 4, 33);   // used as aᵀ
  const Tensor b = random_matrix(5, 6, 34);   // used as bᵀ
  Tensor c1{Shape{4, 5}}, c2{Shape{4, 5}};
  gemm(true, true, 4, 5, 6, 1.0f, a.data(), 4, b.data(), 6, 0.0f,
       c1.data(), 5);
  std::vector<float> scratch(
      static_cast<std::size_t>(gemm_scratch_floats(true, true, 4, 5, 6)));
  gemm(true, true, 4, 5, 6, 1.0f, a.data(), 4, b.data(), 6, 0.0f,
       c2.data(), 5, scratch.data());
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0f);  // bit-identical by construction
}

// op(B) is packed into whole 16-column panels for either trans_b (n = 8
// rounds up to one panel of 16 × k), plus m × k for the Aᵀ pack.
TEST(Gemm, ScratchFloatsAccounting) {
  EXPECT_EQ(gemm_scratch_floats(false, false, 7, 8, 9), 144);
  EXPECT_EQ(gemm_scratch_floats(true, false, 7, 8, 9), 63 + 144);
  EXPECT_EQ(gemm_scratch_floats(false, true, 7, 8, 9), 144);
  EXPECT_EQ(gemm_scratch_floats(true, true, 7, 8, 9), 63 + 144);
  EXPECT_EQ(gemm_scratch_floats(false, true, 7, 33, 9), 3 * 16 * 9);
  EXPECT_EQ(gemm_scratch_floats(false, false, 7, 0, 9), 0);
}

TEST(Gemv, MatchesMatmul) {
  const Tensor a = random_matrix(5, 7, 15);
  const Tensor x = random_matrix(7, 1, 16);
  Tensor y{Shape{5}};
  gemv(false, 5, 7, 1.0f, a.data(), 7, x.data(), 0.0f, y.data());
  const Tensor ref = naive_matmul(a, x);
  for (index_t i = 0; i < 5; ++i) EXPECT_NEAR(y[i], ref[i], 1e-5f);
}

TEST(Gemv, TransposedMatchesMatmul) {
  const Tensor a = random_matrix(5, 7, 17);
  const Tensor x = random_matrix(5, 1, 18);
  Tensor y{Shape{7}};
  gemv(true, 5, 7, 1.0f, a.data(), 7, x.data(), 0.0f, y.data());
  Tensor at{Shape{7, 5}};
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 7; ++j) at.at(j, i) = a.at(i, j);
  const Tensor ref = naive_matmul(at, x);
  for (index_t i = 0; i < 7; ++i) EXPECT_NEAR(y[i], ref[i], 1e-5f);
}

TEST(Gemv, BetaAccumulates) {
  const Tensor a = random_matrix(2, 2, 19);
  const Tensor x = random_matrix(2, 1, 20);
  Tensor y{Shape{2}, 1.0f};
  gemv(false, 2, 2, 1.0f, a.data(), 2, x.data(), 1.0f, y.data());
  const Tensor ref = naive_matmul(a, x);
  EXPECT_NEAR(y[0], ref[0] + 1.0f, 1e-5f);
}

TEST(Dot, MatchesReference) {
  Rng rng(21);
  Tensor a{Shape{103}}, b{Shape{103}};
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  double ref = 0.0;
  for (index_t i = 0; i < 103; ++i)
    ref += static_cast<double>(a[i]) * b[i];
  EXPECT_NEAR(dot(a.data(), b.data(), 103), ref, 1e-4);
}

TEST(Axpy, Accumulates) {
  Tensor x{Shape{4}, std::vector<float>{1, 2, 3, 4}};
  Tensor y{Shape{4}, std::vector<float>{10, 20, 30, 40}};
  axpy(4, 0.5f, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[3], 42.0f);
}

}  // namespace
}  // namespace qdnn::linalg
