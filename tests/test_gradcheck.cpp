// Finite-difference validation of every analytic backward pass: VA (the
// paper's Eq. 11-13), AGNN and GAT (derived in this repo), and GCN — for
// the weight matrices W, the attention parameters a, and the input features.
// All in double precision with smooth activations (tanh) to keep the
// numeric differentiation well-conditioned.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/gradcheck.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

struct GradCase {
  ModelKind kind;
  int layers;
  index_t k;
};

class BackwardSweep : public ::testing::TestWithParam<GradCase> {};

// Builds the model/graph/task and returns max relative gradient error over
// all parameters and the input features.
void run_gradcheck(const GradCase& p) {
  const index_t n = 14;
  const auto g = testing::small_graph<double>(n, 60, 100 + p.k);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const CsrMatrix<double> adj_t = adj.transposed();

  GnnConfig cfg;
  cfg.kind = p.kind;
  cfg.in_features = p.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.layers), p.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.output_activation = Activation::kIdentity;
  cfg.mlp_activation = Activation::kTanh;  // smooth for finite differences
  cfg.gin_epsilon = 0.3;
  cfg.seed = 2024;
  GnnModel<double> model(cfg);

  auto x = testing::random_dense<double>(n, p.k, 31);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  Rng rng(7);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(
                               static_cast<std::uint64_t>(p.k)));

  const auto loss_fn = [&]() {
    const auto h = model.infer(adj, x);
    return static_cast<double>(softmax_cross_entropy<double>(h, labels).value);
  };

  // Analytic gradients.
  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(adj, x, caches);
  const auto loss = softmax_cross_entropy<double>(h, labels);
  const auto grads = model.backward(adj, adj_t, caches, loss.grad);

  // Check W of every layer.
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    auto& w = model.layer(l).weights();
    const auto res = gradcheck<double>(w.flat(), grads[l].d_w.flat(), loss_fn, 1e-6);
    EXPECT_LT(res.max_rel_error, 2e-4)
        << to_string(p.kind) << " dW layer " << l
        << " worst idx " << res.worst_index << " abs " << res.max_abs_error;
  }
  // Check W2 of every layer (GIN's second MLP matrix).
  if (p.kind == ModelKind::kGIN) {
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      auto& w2 = model.layer(l).weights2();
      const auto res = gradcheck<double>(w2.flat(), grads[l].d_w2.flat(), loss_fn, 1e-6);
      EXPECT_LT(res.max_rel_error, 2e-4)
          << "dW2 layer " << l << " abs " << res.max_abs_error;
    }
  }
  // Check a (GAT).
  if (p.kind == ModelKind::kGAT) {
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      auto& a = model.layer(l).attention_params();
      const auto res = gradcheck<double>(std::span<double>(a),
                                         std::span<const double>(grads[l].d_a),
                                         loss_fn, 1e-6);
      EXPECT_LT(res.max_rel_error, 2e-4)
          << "da layer " << l << " abs " << res.max_abs_error;
    }
  }
  // Check the input features (grads[0].d_h_in is dL/dH^0 pre-activation-
  // composition — since layer 0's input IS x, it is dL/dx directly).
  {
    const auto res = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
    EXPECT_LT(res.max_rel_error, 2e-4)
        << to_string(p.kind) << " dX abs " << res.max_abs_error;
  }
}

TEST_P(BackwardSweep, AnalyticGradientsMatchFiniteDifferences) {
  run_gradcheck(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Models, BackwardSweep,
    ::testing::Values(GradCase{ModelKind::kGCN, 1, 5}, GradCase{ModelKind::kGCN, 3, 4},
                      GradCase{ModelKind::kVA, 1, 5}, GradCase{ModelKind::kVA, 2, 4},
                      GradCase{ModelKind::kVA, 3, 3},
                      GradCase{ModelKind::kAGNN, 1, 5}, GradCase{ModelKind::kAGNN, 2, 4},
                      GradCase{ModelKind::kAGNN, 3, 3},
                      GradCase{ModelKind::kGAT, 1, 5}, GradCase{ModelKind::kGAT, 2, 4},
                      GradCase{ModelKind::kGAT, 3, 3},
                      GradCase{ModelKind::kGIN, 1, 5}, GradCase{ModelKind::kGIN, 2, 4},
                      GradCase{ModelKind::kGIN, 3, 3}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_L" +
             std::to_string(tpi.param.layers) + "_k" + std::to_string(tpi.param.k);
    });

// GAT with attention heads: `heads` concatenated heads per hidden layer and
// two averaged output heads, every head's block of W and a checked as part
// of the layer's one W and one a.
class GatHeadsGradSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GatHeadsGradSweep, GradientsMatchFiniteDifferences) {
  const auto [heads, hidden_layers] = GetParam();
  const index_t n = 12, k = 4;
  const auto g = testing::small_graph<double>(n, 50, 19);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  auto x = testing::random_dense<double>(n, k, 21);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 3;

  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(hidden_layers) + 1, 3);
  cfg.heads = heads;
  cfg.out_heads = 2;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 23;
  GnnModel<double> model(cfg);

  const auto loss_fn = [&]() {
    return static_cast<double>(
        softmax_cross_entropy<double>(model.infer(g.adj, x), labels).value);
  };
  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(g.adj, x, caches);
  const auto loss = softmax_cross_entropy<double>(h, labels);
  const auto grads = model.backward(g.adj, adj_t, caches, loss.grad);

  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    auto& layer = model.layer(l);
    const auto res_w =
        gradcheck<double>(layer.weights().flat(), grads[l].d_w.flat(), loss_fn, 1e-6);
    EXPECT_LT(res_w.max_rel_error, 2e-4) << "layer " << l << " dW";
    const auto res_a = gradcheck<double>(std::span<double>(layer.attention_params()),
                                         std::span<const double>(grads[l].d_a),
                                         loss_fn, 1e-6);
    EXPECT_LT(res_a.max_rel_error, 2e-4) << "layer " << l << " da";
  }
  const auto res_x = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
  EXPECT_LT(res_x.max_rel_error, 2e-4) << "dX";
}

INSTANTIATE_TEST_SUITE_P(Shapes, GatHeadsGradSweep,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1},
                                           std::tuple{4, 1}, std::tuple{2, 2}),
                         [](const auto& tpi) {
                           std::string name = "h";
                           name += std::to_string(std::get<0>(tpi.param));
                           name += "_L" + std::to_string(std::get<1>(tpi.param));
                           return name;
                         });

TEST(Gradcheck, DirectedGraphBackwardVa) {
  // The backward pass runs on the reversed graph (Section 5.2); exercise
  // A != A^T explicitly.
  const index_t n = 12, k = 4;
  graph::BuildOptions opt;
  opt.symmetrize = false;
  opt.add_self_loops = true;  // keep softmax/attention rows non-empty
  const auto g = graph::build_graph<double>(
      graph::generate_erdos_renyi_m(n, 50, 55), opt);
  const CsrMatrix<double> adj = g.adj;
  const CsrMatrix<double> adj_t = adj.transposed();

  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 8;
  GnnModel<double> model(cfg);
  auto x = testing::random_dense<double>(n, k, 9);
  std::vector<index_t> labels(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;

  const auto loss_fn = [&]() {
    return static_cast<double>(
        softmax_cross_entropy<double>(model.infer(adj, x), labels).value);
  };
  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(adj, x, caches);
  const auto loss = softmax_cross_entropy<double>(h, labels);
  const auto grads = model.backward(adj, adj_t, caches, loss.grad);
  const auto res = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
  EXPECT_LT(res.max_rel_error, 2e-4) << "directed VA dX";
  auto& w = model.layer(0).weights();
  const auto res_w = gradcheck<double>(w.flat(), grads[0].d_w.flat(), loss_fn, 1e-6);
  EXPECT_LT(res_w.max_rel_error, 2e-4) << "directed VA dW";
}

TEST(Gradcheck, WeightedAdjacencyBackward) {
  // Non-binary adjacency values exercise the A-value multipliers in every
  // backward pass (the edge-weight factors of the Hadamard filters).
  const index_t n = 12, k = 4;
  const auto g = testing::small_graph<double>(n, 50, 202);
  CsrMatrix<double> adj = g.adj;
  {
    Rng rng(203);
    auto v = adj.vals_mutable();
    for (auto& x : v) x = rng.next_uniform(0.3, 2.0);
  }
  const CsrMatrix<double> adj_t = adj.transposed();
  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                               ModelKind::kGCN, ModelKind::kGIN}) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = k;
    cfg.layer_widths = {k, k};
    cfg.hidden_activation = Activation::kTanh;
    cfg.mlp_activation = Activation::kTanh;
    cfg.seed = 204;
    GnnModel<double> model(cfg);
    auto x = testing::random_dense<double>(n, k, 205);
    std::vector<index_t> labels(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;
    const auto loss_fn = [&]() {
      return static_cast<double>(
          softmax_cross_entropy<double>(model.infer(adj, x), labels).value);
    };
    std::vector<LayerCache<double>> caches;
    const auto h = model.forward(adj, x, caches);
    const auto loss = softmax_cross_entropy<double>(h, labels);
    const auto grads = model.backward(adj, adj_t, caches, loss.grad);
    const auto res = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
    EXPECT_LT(res.max_rel_error, 2e-4) << "weighted " << to_string(kind) << " dX";
    auto& w = model.layer(0).weights();
    const auto res_w = gradcheck<double>(w.flat(), grads[0].d_w.flat(), loss_fn, 1e-6);
    EXPECT_LT(res_w.max_rel_error, 2e-4) << "weighted " << to_string(kind) << " dW";
  }
}

TEST(Gradcheck, MseLossBackwardThroughModel) {
  const index_t n = 10, k = 3;
  const auto g = testing::small_graph<double>(n, 40, 66);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k};
  cfg.hidden_activation = Activation::kTanh;
  cfg.output_activation = Activation::kTanh;
  cfg.seed = 3;
  GnnModel<double> model(cfg);
  auto x = testing::random_dense<double>(n, k, 4);
  const auto target = testing::random_dense<double>(n, k, 5);

  const auto loss_fn = [&]() {
    return static_cast<double>(mse_loss(model.infer(g.adj, x), target).value);
  };
  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(g.adj, x, caches);
  const auto loss = mse_loss(h, target);
  const auto grads = model.backward(g.adj, adj_t, caches, loss.grad);
  const auto res = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
  EXPECT_LT(res.max_rel_error, 2e-4);
}

}  // namespace
}  // namespace agnn
