// Mini-batch training and the SBM generator: sampled steps must converge on
// a learnable task, and full-batch-sized batches must match full-batch
// training exactly.
#include <gtest/gtest.h>

#include "baseline/minibatch_trainer.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "graph/sbm.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

struct SbmTask {
  CsrMatrix<double> adj;
  DenseMatrix<double> x;
  std::vector<index_t> labels;
};

SbmTask make_sbm_task(index_t n, index_t classes, std::uint64_t seed) {
  const auto sbm = graph::generate_sbm(
      {.n = n, .communities = classes, .p_in = 0.25, .p_out = 0.02, .seed = seed});
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  SbmTask task;
  task.adj = graph::build_graph<double>(sbm.edges, opt).adj;
  task.labels = sbm.labels;
  task.x = DenseMatrix<double>(n, 6);
  Rng rng(seed + 1);
  for (index_t i = 0; i < n; ++i) {
    for (index_t f = 0; f < 6; ++f) {
      const double base =
          (f % classes == task.labels[static_cast<std::size_t>(i)]) ? 0.5 : -0.2;
      task.x(i, f) = base + rng.next_uniform(-1.0, 1.0);
    }
  }
  return task;
}

TEST(Sbm, GeneratorProperties) {
  const auto sbm = graph::generate_sbm(
      {.n = 200, .communities = 4, .p_in = 0.2, .p_out = 0.01, .seed = 3});
  EXPECT_EQ(sbm.labels.size(), 200u);
  for (index_t v = 0; v < 200; ++v) {
    EXPECT_EQ(sbm.labels[static_cast<std::size_t>(v)], v % 4);
  }
  // Count intra vs inter edges: intra rate must be far higher.
  index_t intra = 0, inter = 0;
  for (index_t e = 0; e < sbm.edges.size(); ++e) {
    const auto li = sbm.labels[static_cast<std::size_t>(
        sbm.edges.src[static_cast<std::size_t>(e)])];
    const auto lj = sbm.labels[static_cast<std::size_t>(
        sbm.edges.dst[static_cast<std::size_t>(e)])];
    (li == lj ? intra : inter) += 1;
  }
  // 50 vertices/community: intra pairs = 4 * C(50,2) = 4900 at 0.2;
  // inter pairs = C(200,2) - 4900 = 15000 at 0.01.
  EXPECT_GT(intra, 700);
  EXPECT_LT(intra, 1300);
  EXPECT_GT(inter, 60);
  EXPECT_LT(inter, 300);
}

TEST(Sbm, DeterministicAndValidatesInput) {
  const auto a = graph::generate_sbm({.n = 50, .communities = 2, .seed = 9});
  const auto b = graph::generate_sbm({.n = 50, .communities = 2, .seed = 9});
  EXPECT_EQ(a.edges.src, b.edges.src);
  EXPECT_THROW(graph::generate_sbm({.n = 0}), std::logic_error);
  EXPECT_THROW(graph::generate_sbm({.n = 10, .communities = 2, .p_in = 1.5}),
               std::logic_error);
}

class MinibatchTrainSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(MinibatchTrainSweep, SampledStepsLearnTheTask) {
  const auto task = make_sbm_task(80, 2, 17);
  const CsrMatrix<double> adj = GetParam() == ModelKind::kGCN
                                    ? graph::sym_normalize(task.adj)
                                    : task.adj;
  GnnConfig cfg;
  cfg.kind = GetParam();
  cfg.in_features = 6;
  cfg.layer_widths = {8, 2};
  cfg.hidden_activation = Activation::kTanh;
  cfg.mlp_activation = Activation::kTanh;
  cfg.seed = 21;
  GnnModel<double> model(cfg);
  baseline::MinibatchTrainer<double> trainer(
      model, std::make_unique<AdamOptimizer<double>>(0.01), 24, 5);
  const auto losses = trainer.train(adj, task.x, task.labels, 250);
  const auto h = model.infer(adj, task.x);
  EXPECT_GT(accuracy<double>(h, task.labels), 0.85) << to_string(GetParam());
  EXPECT_LT(losses.back(), losses.front());
}

INSTANTIATE_TEST_SUITE_P(Models, MinibatchTrainSweep,
                         ::testing::Values(ModelKind::kGCN, ModelKind::kGAT),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(MinibatchTrainer, FullSizedBatchMatchesFullBatchStep) {
  // Batch size >= n degenerates to full-batch training with a seed mask of
  // everything — one step must equal Trainer::step exactly.
  const auto task = make_sbm_task(40, 2, 23);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 6;
  cfg.layer_widths = {4, 2};
  cfg.seed = 31;

  GnnModel<double> full_model(cfg);
  Trainer<double> full(full_model, std::make_unique<SgdOptimizer<double>>(0.05));
  const double full_loss =
      full.step(task.adj, task.adj.transposed(), task.x, task.labels).loss;

  GnnModel<double> mb_model(cfg);
  baseline::MinibatchTrainer<double> mb(
      mb_model, std::make_unique<SgdOptimizer<double>>(0.05), 40, 1);
  const auto res = mb.step(task.adj, task.x, task.labels);
  EXPECT_EQ(res.seeds, 40);
  EXPECT_NEAR(res.loss, full_loss, 1e-10);
  for (std::size_t l = 0; l < full_model.num_layers(); ++l) {
    testing::expect_matrix_near(mb_model.layer(l).weights(),
                                full_model.layer(l).weights(), 1e-10, "weights");
  }
}

TEST(MinibatchTrainer, ReportsBatchComposition) {
  const auto task = make_sbm_task(60, 2, 29);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 6;
  cfg.layer_widths = {4, 2};
  GnnModel<double> model(cfg);
  baseline::MinibatchTrainer<double> trainer(
      model, std::make_unique<SgdOptimizer<double>>(0.01), 10, 3);
  const auto res = trainer.step(task.adj, task.x, task.labels);
  EXPECT_EQ(res.seeds, 10);
  EXPECT_GE(res.batch_vertices, res.seeds);
  EXPECT_LE(res.batch_vertices, 60);
}

}  // namespace
}  // namespace agnn
