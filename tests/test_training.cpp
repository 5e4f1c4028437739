// End-to-end full-batch training: the loss must decrease and the models must
// solve a planted-partition node-classification task.
#include <gtest/gtest.h>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

// A planted two-community graph: dense intra-community, sparse
// inter-community edges, with features that weakly indicate the community.
struct PlantedTask {
  CsrMatrix<double> adj;
  DenseMatrix<double> x;
  std::vector<index_t> labels;
};

PlantedTask make_planted_task(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = n;
  const index_t half = n / 2;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool same = (i < half) == (j < half);
      const double p = same ? 0.30 : 0.03;
      if (rng.next_double() < p) coo.push_back(i, j, 1.0);
    }
  }
  for (index_t i = 0; i < n; ++i) coo.push_back(i, i, 1.0);  // self loops
  coo.dedup_binary();

  PlantedTask task;
  task.adj = CsrMatrix<double>::from_coo(coo);
  task.x = DenseMatrix<double>(n, 4);
  task.labels.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    task.labels[static_cast<std::size_t>(i)] = i < half ? 0 : 1;
    for (index_t f = 0; f < 4; ++f) {
      // Noisy community indicator.
      const double base = (i < half ? 1.0 : -1.0) * (f % 2 == 0 ? 0.5 : -0.5);
      task.x(i, f) = base + rng.next_uniform(-1.0, 1.0);
    }
  }
  return task;
}

class TrainSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(TrainSweep, LossDecreasesAndTaskIsLearned) {
  const auto task = make_planted_task(60, 17);
  const CsrMatrix<double> adj = GetParam() == ModelKind::kGCN
                                    ? graph::sym_normalize(task.adj)
                                    : task.adj;
  GnnConfig cfg;
  cfg.kind = GetParam();
  cfg.in_features = 4;
  cfg.layer_widths = {8, 2};
  cfg.hidden_activation = Activation::kTanh;
  // GIN's sum aggregation is degree-amplifying; the tanh MLP keeps the
  // hidden scale bounded so training converges on the same budget.
  cfg.mlp_activation = Activation::kTanh;
  cfg.seed = 33;
  GnnModel<double> model(cfg);
  Trainer<double> trainer(model, std::make_unique<AdamOptimizer<double>>(0.01));
  const auto losses = trainer.train(adj, task.x, task.labels, 150);

  // The loss trajectory must show real learning: final well below initial.
  EXPECT_LT(losses.back(), 0.5 * losses.front())
      << to_string(GetParam()) << ": " << losses.front() << " -> " << losses.back();
  // And the model must classify the communities well.
  const auto h = model.infer(adj, task.x);
  EXPECT_GT(accuracy<double>(h, task.labels), 0.9) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, TrainSweep,
                         ::testing::Values(ModelKind::kGCN, ModelKind::kVA,
                                           ModelKind::kAGNN, ModelKind::kGAT,
                                           ModelKind::kGIN),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(Training, MaskedTrainingIgnoresTestVertices) {
  const auto task = make_planted_task(40, 23);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {8, 2};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 12;
  GnnModel<double> model(cfg);
  Trainer<double> trainer(model, std::make_unique<AdamOptimizer<double>>(0.01));
  // Train on 60% of vertices only.
  std::vector<std::uint8_t> train_mask(40);
  for (int i = 0; i < 40; ++i) train_mask[static_cast<std::size_t>(i)] = (i % 5) < 3;
  const auto losses = trainer.train(task.adj, task.x, task.labels, 120, train_mask);
  EXPECT_LT(losses.back(), losses.front());
  // Generalization to the held-out vertices (the graph carries the signal).
  std::vector<std::uint8_t> test_mask(40);
  for (int i = 0; i < 40; ++i) test_mask[static_cast<std::size_t>(i)] = !train_mask[static_cast<std::size_t>(i)];
  const auto h = model.infer(task.adj, task.x);
  EXPECT_GT(accuracy<double>(h, task.labels, test_mask), 0.75);
}

TEST(Training, SgdStepMovesWeightsOppositeGradient) {
  const auto task = make_planted_task(20, 29);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 4;
  cfg.layer_widths = {2};
  cfg.seed = 9;
  GnnModel<double> model(cfg);
  const DenseMatrix<double> w_before = model.layer(0).weights();

  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(task.adj, task.x, caches);
  const auto loss = softmax_cross_entropy<double>(h, task.labels);
  const auto grads = model.backward(task.adj, task.adj.transposed(), caches, loss.grad);
  SgdOptimizer<double> sgd(0.1);
  model.apply_gradients(grads, sgd);
  const DenseMatrix<double>& w_after = model.layer(0).weights();
  for (index_t i = 0; i < w_before.size(); ++i) {
    EXPECT_NEAR(w_after.data()[i],
                w_before.data()[i] - 0.1 * grads[0].d_w.data()[i], 1e-12);
  }
}

// Every backward reads its transposes through adj_t's source_edges() map,
// so an adj_t that did not come from transposed_into is refused, even where
// A is symmetric and equal to its transpose.
TEST(Training, BackwardRefusesAdjTWithoutSourceEdgeMap) {
  const auto task = make_planted_task(24, 5);
  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                               ModelKind::kGCN, ModelKind::kGIN}) {
    Rng rng(3);
    const Layer<double> layer(kind, 4, 3, Activation::kRelu, rng);
    LayerCache<double> cache;
    const DenseMatrix<double> z = layer.forward(task.adj, task.x, &cache);
    const DenseMatrix<double> g(z.rows(), z.cols(), 0.25);
    try {
      layer.backward(task.adj, task.adj, cache, g);
      ADD_FAILURE() << to_string(kind) << ": backward accepted an adj_t without a map";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("adj_t"), std::string::npos) << e.what();
    }
    EXPECT_NO_THROW(layer.backward(task.adj, task.adj.transposed(), cache, g))
        << to_string(kind);
  }
}

TEST(Training, DeterministicGivenSeed) {
  const auto task = make_planted_task(30, 31);
  auto run = [&](std::uint64_t seed) {
    GnnConfig cfg;
    cfg.kind = ModelKind::kAGNN;
    cfg.in_features = 4;
    cfg.layer_widths = {4, 2};
    cfg.seed = seed;
    GnnModel<double> model(cfg);
    Trainer<double> trainer(model, std::make_unique<SgdOptimizer<double>>(0.05));
    return trainer.train(task.adj, task.x, task.labels, 10);
  };
  const auto l1 = run(7);
  const auto l2 = run(7);
  EXPECT_EQ(l1, l2);
  const auto l3 = run(8);
  EXPECT_NE(l1, l3);
}

// GAT with three concatenated hidden heads and two averaged output heads
// learns a two-community split through the Trainer.
TEST(GatLayerHeads, TrainerLearnsPlantedTask) {
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

  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {4, 2};
  cfg.heads = 3;
  cfg.out_heads = 2;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 5;
  GnnModel<double> model(cfg);
  Trainer<double> trainer(model, std::make_unique<AdamOptimizer<double>>(0.01));
  const auto losses = trainer.train(adj, x, labels, 120);
  EXPECT_LT(losses.back(), 0.3 * losses.front());
  EXPECT_GT(accuracy<double>(model.infer(adj, x), labels), 0.9);
}

}  // namespace
}  // namespace agnn
