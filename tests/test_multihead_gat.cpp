// Tests for multi-head GAT: equivalence with the single-head layer,
// head-combination semantics, finite-difference gradient checks for every
// head's parameters, and end-to-end training.
#include <gtest/gtest.h>

#include "core/gradcheck.hpp"
#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/multihead_gat.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

TEST(MultiHeadGat, SingleHeadMatchesLayerGat) {
  const index_t n = 24, k = 5;
  const auto g = testing::small_graph<double>(n, 100, 3);
  const auto x = testing::random_dense<double>(n, k, 5);

  Rng rng(77);
  MultiHeadGatLayer<double> mh(k, k, 1, HeadCombine::kConcat, Activation::kTanh,
                               rng, 0.2);
  Rng rng2(78);
  Layer<double> single(ModelKind::kGAT, k, k, Activation::kTanh, rng2, 0.2);
  // Copy parameters so the two layers are identical.
  single.weights() = mh.head(0).w;
  single.attention_params() = mh.head(0).a;

  const auto out_mh = mh.forward(g.adj, x, nullptr);
  const auto out_single = single.forward(g.adj, x, nullptr);
  testing::expect_matrix_near(out_mh, out_single, 1e-10, "1-head == single GAT");
}

TEST(MultiHeadGat, ConcatOutputWidthAndLayout) {
  const index_t n = 16, k = 4;
  const auto g = testing::small_graph<double>(n, 70, 7);
  const auto x = testing::random_dense<double>(n, k, 9);
  Rng rng(11);
  MultiHeadGatLayer<double> mh(k, 3, 4, HeadCombine::kConcat,
                               Activation::kIdentity, rng);
  EXPECT_EQ(mh.out_features(), 12);
  const auto out = mh.forward(g.adj, x, nullptr);
  EXPECT_EQ(out.cols(), 12);
  // Each head's slice must equal that head run alone.
  for (int h = 0; h < 4; ++h) {
    Rng rng_h(20 + h);
    MultiHeadGatLayer<double> solo(k, 3, 1, HeadCombine::kConcat,
                                   Activation::kIdentity, rng_h);
    solo.head(0) = mh.head(h);
    const auto out_solo = solo.forward(g.adj, x, nullptr);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(out(i, h * 3 + j), out_solo(i, j), 1e-12);
      }
    }
  }
}

TEST(MultiHeadGat, AverageIsMeanOfHeads) {
  const index_t n = 14, k = 4;
  const auto g = testing::small_graph<double>(n, 60, 13);
  const auto x = testing::random_dense<double>(n, k, 15);
  Rng rng(17);
  MultiHeadGatLayer<double> mh(k, 5, 3, HeadCombine::kAverage,
                               Activation::kIdentity, rng);
  EXPECT_EQ(mh.out_features(), 5);
  const auto out = mh.forward(g.adj, x, nullptr);
  DenseMatrix<double> manual(n, 5, 0.0);
  for (int h = 0; h < 3; ++h) {
    Rng rng_h(30 + h);
    MultiHeadGatLayer<double> solo(k, 5, 1, HeadCombine::kConcat,
                                   Activation::kIdentity, rng_h);
    solo.head(0) = mh.head(h);
    axpy(1.0 / 3.0, solo.forward(g.adj, x, nullptr), manual);
  }
  testing::expect_matrix_near(out, manual, 1e-12, "average combine");
}

class MultiHeadGradSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiHeadGradSweep, GradientsMatchFiniteDifferences) {
  const auto [heads, hidden_layers] = GetParam();
  const index_t n = 12, k = 4;
  const auto g = testing::small_graph<double>(n, 50, 19);
  auto x = testing::random_dense<double>(n, k, 21);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 3;

  typename MultiHeadGat<double>::Config cfg;
  cfg.in_features = k;
  cfg.head_features = 3;
  cfg.heads = heads;
  cfg.out_features = 3;
  cfg.out_heads = 2;
  cfg.hidden_layers = hidden_layers;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 23;
  MultiHeadGat<double> model(cfg);

  const auto loss_fn = [&]() {
    return static_cast<double>(
        softmax_cross_entropy<double>(model.infer(g.adj, x), labels).value);
  };
  std::vector<MultiHeadCache<double>> caches;
  const auto h = model.forward(g.adj, x, caches);
  const auto loss = softmax_cross_entropy<double>(h, labels);
  const auto grads = model.backward(g.adj, caches, loss.grad);

  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    for (int hd = 0; hd < model.layer(l).num_heads(); ++hd) {
      auto& p = model.layer(l).head(hd);
      const auto& hg = grads[l].heads[static_cast<std::size_t>(hd)];
      const auto res_w = gradcheck<double>(p.w.flat(), hg.d_w.flat(), loss_fn, 1e-6);
      EXPECT_LT(res_w.max_rel_error, 2e-4)
          << "layer " << l << " head " << hd << " dW";
      const auto res_a = gradcheck<double>(std::span<double>(p.a),
                                           std::span<const double>(hg.d_a),
                                           loss_fn, 1e-6);
      EXPECT_LT(res_a.max_rel_error, 2e-4)
          << "layer " << l << " head " << hd << " da";
    }
  }
  const auto res_x = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
  EXPECT_LT(res_x.max_rel_error, 2e-4) << "dX";
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultiHeadGradSweep,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1},
                                           std::tuple{4, 1}, std::tuple{2, 2}),
                         [](const auto& tpi) {
                           return "h" + std::to_string(std::get<0>(tpi.param)) +
                                  "_L" + std::to_string(std::get<1>(tpi.param));
                         });

TEST(MultiHeadGat, TrainsOnPlantedTask) {
  // Two-community graph; multi-head GAT must learn the split.
  const index_t n = 60;
  Rng rng(25);
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = n;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool same = (i < n / 2) == (j < n / 2);
      if (rng.next_double() < (same ? 0.3 : 0.03)) coo.push_back(i, j, 1.0);
    }
  }
  for (index_t i = 0; i < n; ++i) coo.push_back(i, i, 1.0);
  coo.dedup_binary();
  const auto adj = CsrMatrix<double>::from_coo(coo);
  DenseMatrix<double> x(n, 4);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = i < n / 2 ? 0 : 1;
    for (index_t f = 0; f < 4; ++f) {
      x(i, f) = (i < n / 2 ? 0.4 : -0.4) + rng.next_uniform(-1.0, 1.0);
    }
  }

  typename MultiHeadGat<double>::Config cfg;
  cfg.in_features = 4;
  cfg.head_features = 4;
  cfg.heads = 3;
  cfg.out_features = 2;
  cfg.out_heads = 2;
  cfg.hidden_layers = 1;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 5;
  MultiHeadGat<double> model(cfg);
  AdamOptimizer<double> opt(0.01);
  double first = 0, last = 0;
  for (int e = 0; e < 120; ++e) {
    std::vector<MultiHeadCache<double>> caches;
    const auto h = model.forward(adj, x, caches);
    const auto loss = softmax_cross_entropy<double>(h, labels);
    if (e == 0) first = loss.value;
    last = loss.value;
    model.apply_gradients(model.backward(adj, caches, loss.grad), opt);
  }
  EXPECT_LT(last, 0.3 * first);
  EXPECT_GT(accuracy<double>(model.infer(adj, x), labels), 0.9);
}

TEST(MultiHeadGat, RejectsZeroHeads) {
  Rng rng(1);
  EXPECT_THROW(MultiHeadGatLayer<double>(4, 4, 0, HeadCombine::kConcat,
                                         Activation::kRelu, rng),
               std::logic_error);
}

}  // namespace
}  // namespace agnn
