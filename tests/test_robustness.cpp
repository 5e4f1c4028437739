// Robustness tests: float32 (the paper's evaluation precision) numerical
// behavior, directed graphs through every engine, extreme attention scores,
// fuzzed execution DAGs for the fusion planner, and the attention
// inspection API.
#include <gtest/gtest.h>

#include "baseline/dist_local_engine.hpp"
#include "baseline/local_engine.hpp"
#include "comm/communicator.hpp"
#include "core/execution_dag.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

// ---- float32 ----------------------------------------------------------------------

class Float32ModelSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(Float32ModelSweep, MatchesDoublePrecisionWithinTolerance) {
  const auto g = testing::small_graph<double>(40, 200, 111);
  const auto x64 = testing::random_dense<double>(40, 8, 113);
  GnnConfig cfg;
  cfg.kind = GetParam();
  cfg.in_features = 8;
  cfg.layer_widths = {8, 4};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 5;
  const CsrMatrix<double> adj64 =
      cfg.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  GnnModel<double> m64(cfg);
  GnnModel<float> m32(cfg);  // same seed: parameters agree to float rounding
  const auto h64 = m64.infer(adj64, x64);
  const auto h32 = m32.infer(adj64.cast<float>(), x64.cast<float>());
  ASSERT_EQ(h64.rows(), h32.rows());
  double max_rel = 0;
  for (index_t i = 0; i < h64.size(); ++i) {
    const double denom = std::max(1.0, std::abs(h64.data()[i]));
    max_rel = std::max(
        max_rel, std::abs(h64.data()[i] - static_cast<double>(h32.data()[i])) / denom);
  }
  EXPECT_LT(max_rel, 5e-4) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, Float32ModelSweep,
                         ::testing::Values(ModelKind::kGCN, ModelKind::kVA,
                                           ModelKind::kAGNN, ModelKind::kGAT,
                                           ModelKind::kGIN),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(Float32, TrainingIsStableOverManySteps) {
  const auto g = testing::small_graph<float>(64, 400, 117);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 8;
  cfg.layer_widths = {8, 4};
  GnnModel<float> model(cfg);
  Rng rng(119);
  DenseMatrix<float> x(64, 8);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(64);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(4));
  Trainer<float> trainer(model, std::make_unique<AdamOptimizer<float>>(0.01f));
  const auto losses = trainer.train(g.adj, x, labels, 200);
  for (const float l : losses) {
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Float32, SoftmaxSurvivesLargeScores) {
  // Scores around +-80 would overflow exp() in float32 without the
  // max-subtraction trick.
  auto a = testing::random_sparse<float>(20, 0.3, 121);
  auto v = a.vals_mutable();
  Rng rng(123);
  for (auto& x : v) x = static_cast<float>(rng.next_uniform(-80.0, 80.0));
  const auto s = row_softmax(a);
  for (index_t e = 0; e < s.nnz(); ++e) {
    EXPECT_TRUE(std::isfinite(s.val_at(e)));
    EXPECT_GE(s.val_at(e), 0.0f);
    EXPECT_LE(s.val_at(e), 1.0f);
  }
}

// ---- directed graphs through every engine ------------------------------------------------

CsrMatrix<double> directed_graph(index_t n, index_t m, std::uint64_t seed) {
  graph::BuildOptions opt;
  opt.symmetrize = false;
  opt.add_self_loops = true;  // keep attention rows non-empty
  opt.fix_isolated = false;
  return graph::build_graph<double>(graph::generate_erdos_renyi_m(n, m, seed), opt)
      .adj;
}

class DirectedEngineSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DirectedEngineSweep, AllEnginesAgreeOnDirectedTraining) {
  const index_t n = 24, k = 4;
  const CsrMatrix<double> adj = directed_graph(n, 90, 127);
  ASSERT_FALSE(adj.same_pattern(adj.transposed()));  // genuinely directed
  const CsrMatrix<double> adj_in =
      GetParam() == ModelKind::kGCN ? graph::sym_normalize(adj) : adj;
  const auto x = testing::random_dense<double>(n, k, 129);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;

  GnnConfig cfg;
  cfg.kind = GetParam();
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.hidden_activation = Activation::kTanh;
  cfg.mlp_activation = Activation::kTanh;
  cfg.seed = 11;

  GnnModel<double> seq(cfg);
  Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.05));
  const double ref_loss = trainer.step(adj_in, adj_in.transposed(), x, labels).loss;

  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    dist::DistEngine<double> engine(world, adj_in, model, dist::DistPolicy::k1_5D);
    SgdOptimizer<double> opt(0.05);
    EXPECT_NEAR(engine.train_step(x, labels, opt).loss, ref_loss, 1e-9)
        << to_string(GetParam()) << " 1.5D directed";
  });
  comm::SpmdRuntime::run(3, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    baseline::DistLocalEngine<double> engine(world, adj_in, model);
    SgdOptimizer<double> opt(0.05);
    EXPECT_NEAR(engine.train_step(x, labels, opt).loss, ref_loss, 1e-9)
        << to_string(GetParam()) << " local directed";
  });
}

INSTANTIATE_TEST_SUITE_P(Models, DirectedEngineSweep,
                         ::testing::Values(ModelKind::kGCN, ModelKind::kVA,
                                           ModelKind::kAGNN, ModelKind::kGAT,
                                           ModelKind::kGIN),
                         [](const auto& tpi) { return to_string(tpi.param); });

// ---- fusion planner fuzz --------------------------------------------------------------

TEST(FusionPlannerFuzz, RandomChainDagsAlwaysResolve) {
  // Random chains: inputs -> k virtual ops -> sparse sampling. The planner
  // must fuse the whole chain, whatever its length.
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    ir::ExecutionDag dag("fuzz");
    const int h = dag.add_input("H", ir::TensorClass::kDenseTall);
    const int a = dag.add_input("A", ir::TensorClass::kSparse);
    int cur = dag.add_op("v0", ir::TensorClass::kVirtualDense,
                         ir::OpClass::kMatMul, {h, h});
    const int chain = 1 + static_cast<int>(rng.next_bounded(5));
    for (int i = 0; i < chain; ++i) {
      std::string name = "v";
      name += std::to_string(i + 1);
      cur = dag.add_op(name, ir::TensorClass::kVirtualDense,
                       ir::OpClass::kElementwise, {cur});
    }
    dag.add_op("sampled", ir::TensorClass::kSparse, ir::OpClass::kSDDMM, {a, cur});
    const auto plan = ir::plan_fusions(dag);
    EXPECT_TRUE(plan.all_virtual_fused()) << "seed " << seed;
    ASSERT_EQ(plan.kernels.size(), 1u);
    EXPECT_EQ(static_cast<int>(plan.kernels.front().path.size()), chain + 2);
  }
}

TEST(FusionPlannerFuzz, DanglingVirtualAlwaysFlagged) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(100 + static_cast<std::uint64_t>(seed));
    ir::ExecutionDag dag("fuzz-bad");
    const int h = dag.add_input("H", ir::TensorClass::kDenseTall);
    int cur = dag.add_op("v0", ir::TensorClass::kVirtualDense,
                         ir::OpClass::kMatMul, {h, h});
    const int chain = static_cast<int>(rng.next_bounded(4));
    for (int i = 0; i < chain; ++i) {
      std::string name = "v";
      name += std::to_string(i + 1);
      cur = dag.add_op(name, ir::TensorClass::kVirtualDense,
                       ir::OpClass::kElementwise, {cur});
    }
    // Terminate in a DENSE op: this path would materialize n x n.
    dag.add_op("reduced", ir::TensorClass::kDenseTall, ir::OpClass::kRowReduce,
               {cur});
    const auto plan = ir::plan_fusions(dag);
    EXPECT_FALSE(plan.all_virtual_fused()) << "seed " << seed;
  }
}

// ---- attention inspection API --------------------------------------------------------------

TEST(AttentionScores, MatchesCachedPsiFromTraining) {
  const auto g = testing::small_graph<double>(18, 70, 131);
  const auto x = testing::random_dense<double>(18, 5, 133);
  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT}) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = 5;
    cfg.layer_widths = {5};
    cfg.seed = 13;
    GnnModel<double> model(cfg);
    std::vector<LayerCache<double>> caches;
    model.forward(g.adj, x, caches);
    const auto psi = model.layer(0).attention_scores(g.adj, x);
    const auto& cached =
        kind == ModelKind::kGAT ? caches[0].heads[0].psi : caches[0].psi;
    testing::expect_sparse_near(psi, cached, 1e-10, to_string(kind));
  }
}

TEST(AttentionScores, GatRowsAreDistributions) {
  const auto g = testing::small_graph<double>(25, 100, 137);
  const auto x = testing::random_dense<double>(25, 6, 139);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 6;
  cfg.layer_widths = {6};
  GnnModel<double> model(cfg);
  const auto psi = model.layer(0).attention_scores(g.adj, x);
  for (index_t i = 0; i < psi.rows(); ++i) {
    if (psi.row_nnz(i) == 0) continue;
    double sum = 0;
    for (index_t e = psi.row_begin(i); e < psi.row_end(i); ++e) sum += psi.val_at(e);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AttentionScores, GcnAndGinReturnAdjacency) {
  const auto g = testing::small_graph<double>(12, 40, 141);
  const auto x = testing::random_dense<double>(12, 4, 143);
  for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kGIN}) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = 4;
    cfg.layer_widths = {4};
    GnnModel<double> model(cfg);
    const auto psi = model.layer(0).attention_scores(g.adj, x);
    EXPECT_TRUE(psi.same_pattern(g.adj));
  }
}

}  // namespace
}  // namespace agnn
