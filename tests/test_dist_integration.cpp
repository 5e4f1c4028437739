// Distributed integration tests: mixed layer widths through the 1.5D
// engine, and end-to-end distributed training that actually solves a task
// (not just matching the sequential engine step-for-step).
#include <gtest/gtest.h>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/graph.hpp"
#include "graph/sbm.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

TEST(DistIntegration, MixedLayerWidthsMatchSequential) {
  // Widths 7 -> 5 -> 3: exercises every engine path where k_in != k_out.
  const index_t n = 24;
  const auto g = testing::small_graph<double>(n, 110, 211);
  const auto x = testing::random_dense<double>(n, 7, 213);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 3;

  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                               ModelKind::kGCN, ModelKind::kGIN}) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = 7;
    cfg.layer_widths = {5, 3};
    cfg.hidden_activation = Activation::kTanh;
    cfg.mlp_activation = Activation::kTanh;
    cfg.seed = 215;
    const CsrMatrix<double> adj =
        kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;

    GnnModel<double> seq(cfg);
    Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.05));
    const double ref_loss = trainer.step(adj, adj.transposed(), x, labels).loss;
    const auto ref_out = seq.infer(adj, x);

    comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      DistEngine<double> engine(world, adj, model, DistPolicy::k1_5D);
      SgdOptimizer<double> opt(0.05);
      ASSERT_NEAR(engine.train_step(x, labels, opt).loss, ref_loss, 1e-9)
          << to_string(kind) << " mixed widths (1.5D)";
      const auto out = engine.infer(x);
      for (index_t i = 0; i < ref_out.size(); ++i) {
        ASSERT_NEAR(out.data()[i], ref_out.data()[i], 1e-8) << to_string(kind);
      }
    });
    comm::SpmdRuntime::run(3, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      baseline::DistLocalEngine<double> engine(world, adj, model);
      SgdOptimizer<double> opt(0.05);
      ASSERT_NEAR(engine.train_step(x, labels, opt).loss, ref_loss, 1e-9)
          << to_string(kind) << " mixed widths (local)";
    });
  }
}

TEST(DistIntegration, DistributedTrainingSolvesPlantedTask) {
  // The distributed engine must not just match steps — a full training run
  // on 9 simulated ranks must reach high accuracy on a learnable task.
  const index_t n = 63;  // not divisible by the grid side
  const auto sbm = graph::generate_sbm(
      {.n = n, .communities = 2, .p_in = 0.3, .p_out = 0.03, .seed = 217});
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  const auto adj = graph::build_graph<double>(sbm.edges, opt).adj;
  DenseMatrix<double> x(n, 4);
  Rng rng(219);
  for (index_t i = 0; i < n; ++i) {
    for (index_t f = 0; f < 4; ++f) {
      x(i, f) = (sbm.labels[static_cast<std::size_t>(i)] == 0 ? 0.5 : -0.5) +
                rng.next_uniform(-1.0, 1.0);
    }
  }
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {8, 2};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 221;

  comm::SpmdRuntime::run(9, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistEngine<double> engine(world, adj, model, DistPolicy::k1_5D);
    AdamOptimizer<double> adam(0.01);
    double first = 0, last = 0;
    for (int e = 0; e < 120; ++e) {
      const auto res = engine.train_step(x, sbm.labels, adam);
      if (e == 0) first = res.loss;
      last = res.loss;
    }
    EXPECT_LT(last, 0.3 * first) << "rank " << world.rank();
    const auto h = engine.infer(x);
    EXPECT_GT(accuracy<double>(h, sbm.labels), 0.9);
  });
}

TEST(DistIntegration, InferenceIdenticalAcrossAllFourEngines) {
  // Sequential, 1.5D, 1D, and ghost-exchange engines: one model, one graph,
  // four execution strategies, identical output.
  const index_t n = 30, k = 5;
  const auto g = testing::small_graph<double>(n, 140, 223);
  const auto x = testing::random_dense<double>(n, k, 227);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.seed = 229;
  GnnModel<double> seq(cfg);
  const auto ref = seq.infer(g.adj, x);

  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistEngine<double> engine(world, g.adj, model, DistPolicy::k1_5D);
    const auto out = engine.infer(x);
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8) << "1.5D";
    }
  });
  comm::SpmdRuntime::run(5, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    baseline::DistLocalEngine<double> engine(world, g.adj, model);
    const auto out = engine.infer(x);
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8) << "ghost-exchange";
    }
  });
}

}  // namespace
}  // namespace agnn::dist
