// Tests for the activation functions (and their derivatives) and the losses
// bootstrapping the backward recursion.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/activations.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::Bits;

class ActivationSweep : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationSweep, DerivativeMatchesFiniteDifference) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  // Probe points away from the ReLU kink.
  for (double z : {-2.0, -0.7, -0.1, 0.1, 0.9, 3.0}) {
    const double numeric = (apply_activation(act, z + eps) -
                            apply_activation(act, z - eps)) / (2 * eps);
    EXPECT_NEAR(activation_derivative(act, z), numeric, 1e-6)
        << to_string(act) << " at z=" << z;
  }
}

// activate and activation_backward run one loop per kind, with the kind a
// template argument. Each must give the bits of the scalar apply_activation
// and gamma * activation_derivative, including on signed zeros, subnormals,
// infinities and NaN, out of place and in place. One exception: where gamma
// and sigma'(z) are both NaN, IEEE 754 leaves open whose payload the
// product carries and the compiler may order the operands either way, so
// there the product need only be a NaN.
template <typename T>
void check_hoisted_loops(Activation act) {
  constexpr T inf = std::numeric_limits<T>::infinity();
  constexpr T nan = std::numeric_limits<T>::quiet_NaN();
  constexpr T tiny = std::numeric_limits<T>::denorm_min();
  const std::vector<T> zs{T(0),    T(-0.0), tiny,   -tiny,  T(1e-3), T(-1e-3),
                          T(0.5),  T(-0.5), T(3),   T(-3),  T(50),   T(-50),
                          T(1000), T(-1000), std::numeric_limits<T>::max(),
                          std::numeric_limits<T>::lowest(), inf, -inf, nan, -nan};
  const std::vector<T> gammas{T(1.5), T(-2), T(0), T(-0.0), tiny, inf, -inf, nan};
  const auto rows = static_cast<index_t>(zs.size());
  const auto cols = static_cast<index_t>(gammas.size());
  DenseMatrix<T> z(rows, cols), gamma(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      z(i, j) = zs[static_cast<std::size_t>(i)];
      gamma(i, j) = gammas[static_cast<std::size_t>(j)];
    }
  }
  const T slope = T(0.2);
  DenseMatrix<T> h, g;
  activate(act, z, h, slope);
  activation_backward(act, z, gamma, g, slope);
  DenseMatrix<T> h_in_place = z, g_in_place = gamma;
  activate(act, h_in_place, h_in_place, slope);
  activation_backward(act, z, g_in_place, g_in_place, slope);
  for (index_t p = 0; p < z.size(); ++p) {
    const T zp = z.data()[p], gp = gamma.data()[p];
    const auto want_h = std::bit_cast<Bits<T>>(apply_activation(act, zp, slope));
    const T d = activation_derivative(act, zp, slope);
    const auto want_g = std::bit_cast<Bits<T>>(gp * d);
    const std::string at = std::string(to_string(act)) + " at z=" +
                           std::to_string(zp) + " gamma=" + std::to_string(gp);
    EXPECT_EQ(std::bit_cast<Bits<T>>(h.data()[p]), want_h) << "activate " << at;
    EXPECT_EQ(std::bit_cast<Bits<T>>(h_in_place.data()[p]), want_h)
        << "in-place activate " << at;
    if (std::isnan(gp) && std::isnan(d)) {
      EXPECT_TRUE(std::isnan(g.data()[p])) << "activation_backward " << at;
      EXPECT_TRUE(std::isnan(g_in_place.data()[p]))
          << "in-place activation_backward " << at;
      continue;
    }
    EXPECT_EQ(std::bit_cast<Bits<T>>(g.data()[p]), want_g)
        << "activation_backward " << at;
    EXPECT_EQ(std::bit_cast<Bits<T>>(g_in_place.data()[p]), want_g)
        << "in-place activation_backward " << at;
  }
}

TEST_P(ActivationSweep, HoistedLoopsMatchScalarBitwise) {
  check_hoisted_loops<float>(GetParam());
  check_hoisted_loops<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationSweep,
                         ::testing::Values(Activation::kIdentity, Activation::kRelu,
                                           Activation::kLeakyRelu, Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Activations, ReluClampsNegative) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, 3.0), 3.0);
}

TEST(Activations, LeakyReluSlope) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kLeakyRelu, -2.0, 0.1), -0.2);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kLeakyRelu, 2.0, 0.1), 2.0);
}

TEST(Activations, ActivateMatrixElementwise) {
  DenseMatrix<double> z(2, 2, std::vector<double>{-1.0, 0.5, 2.0, -0.25});
  const auto h = activate(Activation::kRelu, z);
  EXPECT_DOUBLE_EQ(h(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(h(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(h(1, 1), 0.0);
}

TEST(Activations, BackwardAppliesChainRule) {
  DenseMatrix<double> z(1, 3, std::vector<double>{-1.0, 1.0, 2.0});
  DenseMatrix<double> gamma(1, 3, std::vector<double>{10.0, 20.0, 30.0});
  const auto g = activation_backward(Activation::kRelu, z, gamma);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(g(0, 2), 30.0);
}

TEST(Loss, CrossEntropyUniformLogitsIsLogC) {
  const index_t n = 5, c = 4;
  DenseMatrix<double> h(n, c, 0.0);
  std::vector<index_t> labels(static_cast<std::size_t>(n), 1);
  const auto res = softmax_cross_entropy<double>(h, labels);
  EXPECT_NEAR(res.value, std::log(static_cast<double>(c)), 1e-12);
}

TEST(Loss, CrossEntropyPerfectPredictionNearZero) {
  DenseMatrix<double> h(2, 3, 0.0);
  h(0, 1) = 100.0;
  h(1, 2) = 100.0;
  std::vector<index_t> labels{1, 2};
  const auto res = softmax_cross_entropy<double>(h, labels);
  EXPECT_NEAR(res.value, 0.0, 1e-9);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  auto h = testing::random_dense<double>(6, 4, 77);
  std::vector<index_t> labels{0, 1, 2, 3, 1, 2};
  const auto res = softmax_cross_entropy<double>(h, labels);
  const double eps = 1e-6;
  for (index_t i = 0; i < h.size(); ++i) {
    const double saved = h.data()[i];
    h.data()[i] = saved + eps;
    const double lp = softmax_cross_entropy<double>(h, labels).value;
    h.data()[i] = saved - eps;
    const double lm = softmax_cross_entropy<double>(h, labels).value;
    h.data()[i] = saved;
    EXPECT_NEAR(res.grad.data()[i], (lp - lm) / (2 * eps), 1e-7);
  }
}

TEST(Loss, CrossEntropyMaskExcludesVertices) {
  auto h = testing::random_dense<double>(4, 3, 79);
  std::vector<index_t> labels{0, 1, 2, 0};
  std::vector<std::uint8_t> mask{true, false, true, false};
  const auto res = softmax_cross_entropy<double>(h, labels, mask);
  // Masked rows contribute zero gradient.
  for (index_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(res.grad(1, j), 0.0);
    EXPECT_DOUBLE_EQ(res.grad(3, j), 0.0);
  }
  // Value equals the mean over the two active rows.
  double manual = 0;
  for (index_t i : {index_t(0), index_t(2)}) {
    double mx = h(i, 0);
    for (index_t j = 1; j < 3; ++j) mx = std::max(mx, h(i, j));
    double sum = 0;
    for (index_t j = 0; j < 3; ++j) sum += std::exp(h(i, j) - mx);
    manual += std::log(sum) + mx - h(i, labels[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(res.value, manual / 2.0, 1e-12);
}

TEST(Loss, CrossEntropyExplicitNormalizer) {
  auto h = testing::random_dense<double>(4, 3, 81);
  std::vector<index_t> labels{0, 1, 2, 0};
  const auto res_auto = softmax_cross_entropy<double>(h, labels);
  const auto res_scaled = softmax_cross_entropy<double>(h, labels, {}, 8);
  EXPECT_NEAR(res_scaled.value, res_auto.value / 2.0, 1e-12);
  EXPECT_NEAR(res_scaled.grad(0, 0), res_auto.grad(0, 0) / 2.0, 1e-12);
}

// The parallel loss reduction sums explicit per-thread partials in
// thread-index order over a static row partition, so repeated evaluations
// of the same batch are bitwise identical — not merely close.
TEST(Loss, CrossEntropyRepeatedRunsBitwiseIdentical) {
  const auto h = testing::random_dense<double>(257, 7, 83);
  std::vector<index_t> labels(257);
  Rng rng(89);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(7));
  const auto first = softmax_cross_entropy<double>(h, labels);
  for (int rep = 0; rep < 4; ++rep) {
    const auto again = softmax_cross_entropy<double>(h, labels);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.value),
              std::bit_cast<std::uint64_t>(again.value))
        << "loss value drifted on repeat " << rep;
  }
}

// ---- the subnormal-free gradient against the two-exp formula ---------------

// softmax_cross_entropy before the subnormal rule: two exps per entry, every
// entry written as computed, and the same per-thread loss partials.
template <typename T>
LossResult<T> two_exp_cross_entropy(const DenseMatrix<T>& h,
                                    std::span<const index_t> labels,
                                    std::span<const std::uint8_t> mask,
                                    index_t normalize_count) {
  LossResult<T> out;
  out.grad = DenseMatrix<T>(h.rows(), h.cols(), T(0));
  const index_t n = h.rows(), c = h.cols();
  index_t active = 0;
  for (index_t i = 0; i < n; ++i) {
    if (mask.empty() || mask[static_cast<std::size_t>(i)]) ++active;
  }
  if (normalize_count > 0) active = normalize_count;
  if (active == 0) return out;
  const T inv_n = T(1) / static_cast<T>(active);
  auto row_loss = [&](index_t i) -> double {
    if (!mask.empty() && !mask[static_cast<std::size_t>(i)]) return 0.0;
    const index_t y = labels[static_cast<std::size_t>(i)];
    const T* hi = h.data() + i * c;
    T mx = hi[0];
    for (index_t j = 1; j < c; ++j) mx = std::max(mx, hi[j]);
    T sum = T(0);
    for (index_t j = 0; j < c; ++j) sum += std::exp(hi[j] - mx);
    const T log_z = std::log(sum) + mx;
    T* gi = out.grad.data() + i * c;
    for (index_t j = 0; j < c; ++j) {
      const T p = std::exp(hi[j] - log_z);
      gi[j] = (p - (j == y ? T(1) : T(0))) * inv_n;
    }
    return static_cast<double>(log_z - hi[y]);
  };
  double loss = 0.0;
#if defined(_OPENMP)
  std::vector<double> partials(static_cast<std::size_t>(omp_get_max_threads()), 0.0);
#pragma omp parallel
  {
    double mine = 0.0;
#pragma omp for schedule(static) nowait
    for (index_t i = 0; i < n; ++i) mine += row_loss(i);
    partials[static_cast<std::size_t>(omp_get_thread_num())] = mine;
  }
  for (const double p : partials) loss += p;
#else
  for (index_t i = 0; i < n; ++i) loss += row_loss(i);
#endif
  out.value = static_cast<T>(loss) * inv_n;
  return out;
}

// The contract: the loss bitwise equal to the oracle's, every entry at or
// above min() bitwise equal, every smaller one +0, and none subnormal.
// Returns how many subnormal entries the oracle wrote.
template <typename T>
int expect_subnormal_free(const DenseMatrix<T>& h, std::span<const index_t> labels,
                          std::span<const std::uint8_t> mask, index_t normalize_count,
                          const std::string& what) {
  const auto want = two_exp_cross_entropy(h, labels, mask, normalize_count);
  LossResult<T> got;
  got.grad = DenseMatrix<T>(h.rows(), h.cols(), T(7));  // stale storage is overwritten
  softmax_cross_entropy(h, labels, got, mask, normalize_count);
  EXPECT_EQ(std::bit_cast<Bits<T>>(got.value), std::bit_cast<Bits<T>>(want.value))
      << what << ": loss " << got.value << " vs " << want.value;
  int subnormals = 0, mismatches = 0;
  for (index_t e = 0; e < h.size(); ++e) {
    const T o = want.grad.data()[e], g = got.grad.data()[e];
    subnormals += std::fpclassify(o) == FP_SUBNORMAL;
    const T expected = std::abs(o) < std::numeric_limits<T>::min() ? T(0) : o;
    if (std::bit_cast<Bits<T>>(g) != std::bit_cast<Bits<T>>(expected) ||
        std::fpclassify(g) == FP_SUBNORMAL) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << ": entry (" << e / h.cols() << "," << e % h.cols()
                      << ") is " << g << ", want " << expected << " (oracle " << o << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
  return subnormals;
}

// Rows spread 0 to 300 below their max in float (scaled by ln(min) for
// double, so both types reach their subnormal range), at offsets 0 and
// ±1e4, with tied maxima, tied low values and -inf entries; every seventh row
// is masked out.
template <typename T>
void check_adversarial_logits(index_t c, std::uint64_t seed) {
  const double scale = std::log(static_cast<double>(std::numeric_limits<T>::min())) /
                       std::log(static_cast<double>(std::numeric_limits<float>::min()));
  const index_t n = 211;
  Rng rng(seed);
  DenseMatrix<T> h(n, c);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n), 1);
  for (index_t i = 0; i < n; ++i) {
    const double offset = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 1e4 : -1e4);
    const double spread = scale * 300.0 * static_cast<double>(i % 31) / 30.0;
    for (index_t j = 0; j < c; ++j) {
      h(i, j) = static_cast<T>(offset - spread * rng.next_double());
    }
    const auto pick = [&] {
      return static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(c)));
    };
    if (i % 5 == 0) h(i, pick()) = h(i, pick());                   // a tie
    if (i % 5 == 1) h(i, pick()) = static_cast<T>(offset - spread);  // a tie at the floor
    labels[static_cast<std::size_t>(i)] = pick();
    if (i % 11 == 4 && c > 1) {
      const index_t j = pick();
      if (j != labels[static_cast<std::size_t>(i)]) h(i, j) = -std::numeric_limits<T>::infinity();
    }
    if (i % 7 == 6) mask[static_cast<std::size_t>(i)] = 0;
  }
  const std::string tag = std::string(sizeof(T) == 4 ? "float" : "double") +
                          " c=" + std::to_string(c) + " seed=" + std::to_string(seed);
  int subnormals = 0;
  for (const int threads : {1, 2, 4}) {
    testing::ScopedThreads scoped(threads);
    const std::string at = tag + " threads=" + std::to_string(threads);
    subnormals += expect_subnormal_free<T>(h, labels, {}, -1, at);
    subnormals += expect_subnormal_free<T>(h, labels, mask, -1, at + " masked");
    subnormals += expect_subnormal_free<T>(h, labels, mask, 5 * n, at + " normalize_count");
  }
  // Wider rows reach the oracle's subnormal range: the flush is exercised.
  if (c >= 3) {
    EXPECT_GT(subnormals, 0) << tag;
  }
}

TEST(CrossEntropyOracle, FloatAdversarialLogits) {
  for (const index_t c : {1, 3, 64, 65}) {
    for (const std::uint64_t seed : {101, 102}) check_adversarial_logits<float>(c, seed);
  }
}

TEST(CrossEntropyOracle, DoubleAdversarialLogits) {
  for (const index_t c : {1, 3, 64, 65}) {
    for (const std::uint64_t seed : {103, 104}) check_adversarial_logits<double>(c, seed);
  }
}

TEST(CrossEntropyOracle, AllMaskedWritesZeros) {
  DenseMatrix<float> h(3, 4, 1.0f);
  const std::vector<index_t> labels{0, 1, 2};
  const std::vector<std::uint8_t> mask(3, 0);
  LossResult<float> out;
  out.grad = DenseMatrix<float>(3, 4, 7.0f);
  softmax_cross_entropy(h, labels, out, mask);
  EXPECT_EQ(out.value, 0.0f);
  for (index_t e = 0; e < out.grad.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out.grad.data()[e]), 0u);
  }
}

// A float GIN on a small Kronecker graph, at train-kron's feature scale,
// width and learning rate: its unnormalized sums over hub rows put logits
// far below their row max, as train-kron's VA, AGNN and GIN do, and the
// two-exp gradient holds subnormals where the new one holds none.
TEST(CrossEntropyOracle, SaturatedModelGradientHasNoSubnormals) {
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  const auto adj = graph::build_graph<float>(
      graph::generate_kronecker({.scale = 8, .edges = 16 << 8, .seed = 41}), opt).adj;
  const auto adj_t = adj.transposed();
  const index_t n = adj.rows(), k = 64;
  const auto x = testing::random_dense<float>(n, k, 109, -0.1, 0.1);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  Rng rng(113);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(k));
  GnnConfig cfg;
  cfg.kind = ModelKind::kGIN;
  cfg.in_features = k;
  cfg.layer_widths.assign(3, k);
  cfg.seed = 127;
  GnnModel<float> model(cfg);
  Trainer<float> trainer(model, std::make_unique<AdamOptimizer<float>>(1e-3f));
  for (int step = 0; step < 3; ++step) {
    trainer.step(adj, adj_t, x, labels);
    const int oracle_subnormals = expect_subnormal_free<float>(
        model.infer(adj, x), labels, {}, -1, "step " + std::to_string(step));
    EXPECT_GT(oracle_subnormals, 0) << "step " << step << ": the model is not saturated";
  }
}

TEST(Loss, MseKnownValue) {
  DenseMatrix<double> h(2, 1, std::vector<double>{1.0, 3.0});
  DenseMatrix<double> y(2, 1, std::vector<double>{0.0, 1.0});
  const auto res = mse_loss(h, y);
  // (0.5*1 + 0.5*4) / 2 = 1.25
  EXPECT_DOUBLE_EQ(res.value, 1.25);
  EXPECT_DOUBLE_EQ(res.grad(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(res.grad(1, 0), 1.0);
}

TEST(Loss, ArgmaxAndAccuracy) {
  DenseMatrix<double> h(3, 3, 0.0);
  h(0, 2) = 1.0;
  h(1, 0) = 1.0;
  h(2, 1) = 1.0;
  const auto pred = argmax_rows(h);
  EXPECT_EQ(pred, (std::vector<index_t>{2, 0, 1}));
  std::vector<index_t> labels{2, 0, 0};
  EXPECT_NEAR(accuracy(h, labels), 2.0 / 3.0, 1e-12);
  std::vector<std::uint8_t> mask{true, true, false};
  EXPECT_NEAR(accuracy(h, labels, mask), 1.0, 1e-12);
}

}  // namespace
}  // namespace agnn
