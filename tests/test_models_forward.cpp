// The core equivalence claim of the paper's Section 4: the GLOBAL tensor
// formulations compute exactly what the established LOCAL (message-passing)
// formulations compute. Every model's global-formulation layer is checked
// against the per-edge local engine, in inference and training mode, across
// graph shapes, feature widths, and layer counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baseline/local_engine.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

struct ForwardCase {
  ModelKind kind;
  index_t n;
  index_t m;
  index_t k;
  int layers;
};

class GlobalVsLocalSweep : public ::testing::TestWithParam<ForwardCase> {};

TEST_P(GlobalVsLocalSweep, GlobalFormulationMatchesLocalFormulation) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, p.m, 1234 + p.n);
  GnnConfig cfg;
  cfg.kind = p.kind;
  cfg.in_features = p.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.layers), p.k);
  cfg.hidden_activation = Activation::kRelu;
  cfg.seed = 99;
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(p.n, p.k, 4321);

  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto h_global = model.infer(adj, x);
  const auto h_local = baseline::local_infer(model, adj, x);
  testing::expect_matrix_near(h_global, h_local, 1e-8, to_string(p.kind));
}

TEST_P(GlobalVsLocalSweep, TrainingModeForwardMatchesInference) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, p.m, 777 + p.n);
  GnnConfig cfg;
  cfg.kind = p.kind;
  cfg.in_features = p.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.layers), p.k);
  cfg.seed = 5;
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(p.n, p.k, 6);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;

  std::vector<LayerCache<double>> caches;
  const auto h_train = model.forward(adj, x, caches);
  const auto h_infer = model.infer(adj, x);
  testing::expect_matrix_near(h_train, h_infer, 1e-9, "train vs infer");
  ASSERT_EQ(caches.size(), static_cast<std::size_t>(p.layers));
  for (const auto& cache : caches) {
    EXPECT_EQ(cache.z.rows(), p.n);
    EXPECT_EQ(cache.h_in.rows(), p.n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, GlobalVsLocalSweep,
    ::testing::Values(ForwardCase{ModelKind::kVA, 30, 150, 8, 2},
                      ForwardCase{ModelKind::kVA, 50, 400, 16, 3},
                      ForwardCase{ModelKind::kAGNN, 30, 150, 8, 2},
                      ForwardCase{ModelKind::kAGNN, 50, 400, 16, 3},
                      ForwardCase{ModelKind::kGAT, 30, 150, 8, 2},
                      ForwardCase{ModelKind::kGAT, 50, 400, 16, 3},
                      ForwardCase{ModelKind::kGCN, 30, 150, 8, 2},
                      ForwardCase{ModelKind::kGCN, 50, 400, 16, 3},
                      ForwardCase{ModelKind::kGIN, 30, 150, 8, 2},
                      ForwardCase{ModelKind::kGIN, 50, 400, 16, 3},
                      ForwardCase{ModelKind::kGAT, 12, 40, 4, 4},
                      ForwardCase{ModelKind::kVA, 12, 40, 4, 1}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_n" +
             std::to_string(tpi.param.n) + "_k" + std::to_string(tpi.param.k) +
             "_L" + std::to_string(tpi.param.layers);
    });

TEST(ModelsForward, LayerRejectsWrongFeatureWidth) {
  const auto g = testing::small_graph<double>(10, 40, 1);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 8;
  cfg.layer_widths = {8};
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(10, 5, 2);  // wrong width
  EXPECT_THROW(model.infer(g.adj, x), std::logic_error);
}

TEST(ModelsForward, DifferentWidthsAcrossLayers) {
  const auto g = testing::small_graph<double>(20, 80, 3);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 12;
  cfg.layer_widths = {8, 6, 4};
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(20, 12, 4);
  const auto h = model.infer(g.adj, x);
  EXPECT_EQ(h.rows(), 20);
  EXPECT_EQ(h.cols(), 4);
  // Cross-check against the local engine on a non-square width stack too.
  const auto h_local = baseline::local_infer(model, g.adj, x);
  testing::expect_matrix_near(h, h_local, 1e-8, "GAT widths");
}

TEST(ModelsForward, GcnEqualsVaWithConstantAttentionWeights) {
  // Sanity link between the model families: with H H^T == all-ones (H a
  // single constant column), VA's Psi collapses to A itself, so VA == GCN
  // when GCN runs on the raw (unnormalized) adjacency.
  const auto g = testing::small_graph<double>(15, 60, 7);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 1;
  cfg.layer_widths = {1};
  cfg.output_activation = Activation::kIdentity;
  cfg.seed = 11;
  GnnModel<double> va(cfg);
  cfg.kind = ModelKind::kGCN;
  GnnModel<double> gcn(cfg);
  // Same seed -> same W.
  ASSERT_EQ(va.layer(0).weights(), gcn.layer(0).weights());
  DenseMatrix<double> x(15, 1, 1.0);  // h_i = 1 -> <h_i, h_j> = 1
  testing::expect_matrix_near(va.infer(g.adj, x), gcn.infer(g.adj, x), 1e-9,
                              "VA == GCN for constant features");
}

TEST(ModelsForward, GatAttentionIsInvariantToUniformScoreShift) {
  // Adding a constant to every attention logit leaves softmax unchanged —
  // shift s2 by a constant and the output must not move.
  const auto gph = testing::small_graph<double>(18, 70, 13);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 6;
  cfg.layer_widths = {6};
  cfg.attention_slope = 1.0;  // linear "LeakyReLU" so the shift is exact
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(18, 6, 14);
  const auto h1 = model.infer(gph.adj, x);
  // Shift: fold a constant into s2 by adding c * (H' pseudo-inverse)... the
  // clean way: recompute via the fused kernel directly.
  const auto& layer = model.layer(0);
  const auto hp = matmul(x, layer.weights());
  const std::span<const double> a_all(layer.attention_params());
  const auto a1 = a_all.subspan(0, 6);
  const auto a2 = a_all.subspan(6);
  std::vector<double> s1 = matvec(hp, a1);
  std::vector<double> s2 = matvec(hp, a2);
  auto psi_base = psi_gat<double>(gph.adj, s1, s2, 1.0);
  for (auto& v : s2) v += 3.25;
  for (auto& v : s1) v -= 3.25;
  auto psi_shift = psi_gat<double>(gph.adj, s1, s2, 1.0);
  testing::expect_sparse_near(psi_base.psi, psi_shift.psi, 1e-9, "shift invariance");
  (void)h1;
}

// ---- attention heads ---------------------------------------------------------

// A one-head GAT layer running head h of `layer`: W_h, a_h copied out.
Layer<double> one_head(const Layer<double>& layer, int h) {
  Rng rng(99);
  Layer<double> solo(ModelKind::kGAT, layer.in_features(), layer.head_features(),
                     layer.activation(), rng, layer.attention_slope());
  copy_cols(layer.weights(), h * layer.head_features(), layer.head_features(), 1.0,
            solo.weights());
  const auto [a1, a2] = layer.attention_halves(h);
  auto& a = solo.attention_params();
  std::copy(a1.begin(), a1.end(), a.begin());
  std::copy(a2.begin(), a2.end(), a.begin() + layer.head_features());
  return solo;
}

TEST(GatLayerHeads, ConcatOutputWidthAndLayout) {
  const index_t n = 16, k = 4;
  const auto g = testing::small_graph<double>(n, 70, 7);
  const auto x = testing::random_dense<double>(n, k, 9);
  Rng rng(11);
  const Layer<double> layer(ModelKind::kGAT, k, 3, Activation::kIdentity, rng, 0.2,
                            Activation::kRelu, 0.0, 4);
  EXPECT_EQ(layer.out_features(), 12);
  EXPECT_EQ(layer.weights().cols(), 12);
  EXPECT_EQ(layer.attention_params().size(), 24u);
  const auto out = layer.forward(g.adj, x, nullptr);
  EXPECT_EQ(out.cols(), 12);
  // Each head's columns, and its attention matrix, equal that head run as a
  // one-head layer.
  for (int h = 0; h < 4; ++h) {
    const Layer<double> solo = one_head(layer, h);
    testing::expect_sparse_near(layer.attention_scores(g.adj, x, h),
                                solo.attention_scores(g.adj, x), 1e-12, "head scores");
    const auto out_solo = solo.forward(g.adj, x, nullptr);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(out(i, h * 3 + j), out_solo(i, j), 1e-12);
      }
    }
  }
}

TEST(GatLayerHeads, AverageIsMeanOfHeads) {
  const index_t n = 14, k = 4;
  const auto g = testing::small_graph<double>(n, 60, 13);
  const auto x = testing::random_dense<double>(n, k, 15);
  Rng rng(17);
  const Layer<double> layer(ModelKind::kGAT, k, 5, Activation::kIdentity, rng, 0.2,
                            Activation::kRelu, 0.0, 3, /*average_heads=*/true);
  EXPECT_EQ(layer.out_features(), 5);
  const auto out = layer.forward(g.adj, x, nullptr);
  DenseMatrix<double> manual(n, 5, 0.0);
  for (int h = 0; h < 3; ++h) {
    axpy(1.0 / 3.0, one_head(layer, h).forward(g.adj, x, nullptr), manual);
  }
  testing::expect_matrix_near(out, manual, 1e-12, "average combine");
}

// Head counts below one, or above one on a kind without attention heads,
// are refused with an error naming the field.
TEST(GatLayerHeads, ModelRejectsBadHeadCounts) {
  const auto expect_rejected = [](GnnConfig cfg, const std::string& field) {
    try {
      GnnModel<double> model(cfg);
      FAIL() << "expected " << field << " to be rejected";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("GnnConfig::" + field), std::string::npos)
          << e.what();
    }
  };
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.heads = 0;
  expect_rejected(cfg, "heads");
  cfg.heads = 1;
  cfg.out_heads = -2;
  expect_rejected(cfg, "out_heads");
  cfg.out_heads = 1;
  cfg.kind = ModelKind::kGCN;
  cfg.heads = 2;
  expect_rejected(cfg, "heads");
  cfg.heads = 1;
  cfg.kind = ModelKind::kAGNN;
  cfg.out_heads = 3;
  expect_rejected(cfg, "out_heads");
}

}  // namespace
}  // namespace agnn
