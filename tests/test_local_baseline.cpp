// Tests for the shared-memory local-formulation (message-passing) engine and
// the mini-batch sampler.
#include <gtest/gtest.h>

#include <string>

#include "baseline/local_engine.hpp"
#include "baseline/minibatch.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::baseline {
namespace {

// (The main local-vs-global forward equivalence lives in
// test_models_forward.cpp; here the local engine's own properties and the
// mini-batch machinery are tested.)

TEST(LocalEngine, EmptyNeighborhoodProducesZeroForVa) {
  graph::BuildOptions opt;
  opt.symmetrize = false;
  opt.fix_isolated = false;
  graph::EdgeList el;
  el.n = 3;
  el.push_back(0, 1);
  const auto g = graph::build_graph<double>(el, opt);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 2;
  cfg.layer_widths = {2};
  cfg.output_activation = Activation::kIdentity;
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(3, 2, 5);
  const auto h = local_infer(model, g.adj, x);
  // Vertices 1 and 2 have no out-edges: aggregation is empty -> zero.
  EXPECT_DOUBLE_EQ(h(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(h(2, 1), 0.0);
}

// The local formulation is the single-head stand-in: a GAT model with
// attention heads is refused with the head count in the error.
TEST(LocalEngine, RefusesAttentionHeads) {
  const auto g = testing::small_graph<double>(10, 40, 3);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 3;
  cfg.layer_widths = {3, 2};
  cfg.heads = 3;
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(10, 3, 4);
  try {
    local_infer(model, g.adj, x);
    FAIL() << "expected the head count to be refused";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("one attention head, the layer has 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(LocalEngine, SingleEdgeGatAttentionIsOne) {
  // A vertex with exactly one neighbor gives that neighbor softmax weight 1,
  // so its output equals W h_j exactly.
  graph::BuildOptions opt;
  opt.symmetrize = false;
  opt.fix_isolated = false;
  graph::EdgeList el;
  el.n = 2;
  el.push_back(0, 1);
  el.push_back(1, 0);
  const auto g = graph::build_graph<double>(el, opt);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 3;
  cfg.layer_widths = {3};
  cfg.output_activation = Activation::kIdentity;
  cfg.seed = 21;
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(2, 3, 22);
  const auto h = local_infer(model, g.adj, x);
  const auto hp = matmul(x, model.layer(0).weights());
  for (index_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(h(0, j), hp(1, j), 1e-12);
    EXPECT_NEAR(h(1, j), hp(0, j), 1e-12);
  }
}

class MinibatchSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(MinibatchSweep, SampleProperties) {
  const auto g = testing::small_graph<double>(60, 300, 91);
  const auto mb = sample_minibatch(g.adj, GetParam(), 7);
  EXPECT_EQ(mb.num_seeds, std::min<index_t>(GetParam(), 60));
  EXPECT_GE(static_cast<index_t>(mb.vertices.size()), mb.num_seeds);
  EXPECT_EQ(mb.adj.rows(), static_cast<index_t>(mb.vertices.size()));
  // Seeds come first and all vertex ids are distinct and in range.
  std::vector<index_t> sorted = mb.vertices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const index_t v : mb.vertices) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 60);
  }
}

TEST_P(MinibatchSweep, InducedEdgesMatchGlobalGraph) {
  const auto g = testing::small_graph<double>(40, 200, 93);
  const auto mb = sample_minibatch(g.adj, GetParam(), 11);
  const auto dg = g.adj.to_dense();
  const auto dl = mb.adj.to_dense();
  for (index_t i = 0; i < mb.adj.rows(); ++i) {
    for (index_t j = 0; j < mb.adj.cols(); ++j) {
      EXPECT_DOUBLE_EQ(dl(i, j), dg(mb.vertices[static_cast<std::size_t>(i)],
                                    mb.vertices[static_cast<std::size_t>(j)]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MinibatchSweep,
                         ::testing::Values(1, 5, 16, 40, 1000));

TEST(Minibatch, SeedNeighborhoodIsComplete) {
  // Every neighbor of every seed must be in the batch (1-hop closure).
  const auto g = testing::small_graph<double>(50, 250, 95);
  const auto mb = sample_minibatch(g.adj, 10, 13);
  std::vector<bool> in_batch(50, false);
  for (const index_t v : mb.vertices) in_batch[static_cast<std::size_t>(v)] = true;
  for (index_t s = 0; s < mb.num_seeds; ++s) {
    const index_t gs = mb.vertices[static_cast<std::size_t>(s)];
    for (index_t e = g.adj.row_begin(gs); e < g.adj.row_end(gs); ++e) {
      EXPECT_TRUE(in_batch[static_cast<std::size_t>(g.adj.col_at(e))]);
    }
  }
  // And the seed rows of the induced graph have full degree.
  for (index_t s = 0; s < mb.num_seeds; ++s) {
    const index_t gs = mb.vertices[static_cast<std::size_t>(s)];
    EXPECT_EQ(mb.adj.row_nnz(s), g.adj.row_nnz(gs));
  }
}

TEST(Minibatch, GatherBatchFeatures) {
  const auto g = testing::small_graph<double>(30, 120, 97);
  const auto x = testing::random_dense<double>(30, 4, 99);
  const auto mb = sample_minibatch(g.adj, 8, 15);
  const auto bx = gather_batch_features(x, mb);
  ASSERT_EQ(bx.rows(), static_cast<index_t>(mb.vertices.size()));
  for (std::size_t i = 0; i < mb.vertices.size(); ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(bx(static_cast<index_t>(i), j), x(mb.vertices[i], j));
    }
  }
}

TEST(Minibatch, ModelRunsOnBatchSubgraph) {
  // End-to-end: run GAT inference on a sampled batch — the mini-batch
  // baseline path of the figure benchmarks.
  const auto g = testing::small_graph<double>(80, 400, 101);
  const auto x = testing::random_dense<double>(80, 8, 103);
  const auto mb = sample_minibatch(g.adj, 16, 17);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 8;
  cfg.layer_widths = {8, 4};
  GnnModel<double> model(cfg);
  const auto bx = gather_batch_features(x, mb);
  const auto h = model.infer(mb.adj, bx);
  EXPECT_EQ(h.rows(), static_cast<index_t>(mb.vertices.size()));
  EXPECT_EQ(h.cols(), 4);
  for (index_t i = 0; i < h.size(); ++i) EXPECT_TRUE(std::isfinite(h.data()[i]));
}

TEST(Minibatch, FullBatchDegeneratesToWholeGraph) {
  const auto g = testing::small_graph<double>(25, 100, 105);
  const auto mb = sample_minibatch(g.adj, 25, 19);
  EXPECT_EQ(mb.num_seeds, 25);
  EXPECT_EQ(static_cast<index_t>(mb.vertices.size()), 25);
  EXPECT_EQ(mb.adj.nnz(), g.adj.nnz());
}

}  // namespace
}  // namespace agnn::baseline
