// The distributed engine must reproduce the sequential engine exactly —
// inference, per-step training losses, and post-training parameters — for
// every model kind under every member of the distribution family: 1D row
// blocks, the 1.5D square grid, and the SUMMA 2D / 3D grids, on prime rank
// counts, rectangular factorizations, non-trivial replication depth, and
// non-divisible vertex counts.
//
// One policy-parameterized check runs every case. The cases keep the three
// tables they were written in (DistEngineSweep: 1.5D, Dist1dSweep: 1D,
// SummaEngineSweep: 2D/3D), so each keeps its test name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/engine_factory.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

// The data a case runs on: graph, features and labels derive from these
// seeds (the graph's from `graph + n`), the model from `model`.
struct SweepData {
  std::uint64_t graph;
  std::uint64_t features;
  std::uint64_t labels;
  std::uint64_t model;
  int steps;
  Activation mlp_activation;
};
constexpr SweepData kInferData{11, 13, 0, 4242, 0, Activation::kRelu};
constexpr SweepData kTrainData{17, 19, 23, 4242, 3, Activation::kRelu};
constexpr SweepData kTrain1dData{61, 63, 67, 321, 2, Activation::kTanh};

GnnConfig make_config(ModelKind kind, index_t k, int layers, const SweepData& d) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.mlp_activation = d.mlp_activation;
  cfg.seed = d.model;
  return cfg;
}

CsrMatrix<double> adjacency_for(ModelKind kind, index_t n, const SweepData& d) {
  const auto g = testing::small_graph<double>(n, 5 * n, d.graph + static_cast<std::uint64_t>(n));
  return kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
}

void expect_inference_matches(const GridShape& shape, ModelKind kind, index_t n,
                              index_t k, int layers) {
  const SweepData& d = kInferData;
  const CsrMatrix<double> adj = adjacency_for(kind, n, d);
  const auto x = testing::random_dense<double>(n, k, d.features);
  GnnModel<double> seq_model(make_config(kind, k, layers, d));
  const auto ref = seq_model.infer(adj, x);

  comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(kind, k, layers, d));  // identical replica
    DistEngine<double> engine(world, adj, model, shape);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), ref.rows());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
          << to_string(kind) << " " << shape.describe() << " rank "
          << world.rank() << " elem " << i;
    }
  });
}

void expect_training_matches(const GridShape& shape, ModelKind kind, index_t n,
                             index_t k, int layers, const SweepData& d) {
  const CsrMatrix<double> adj = adjacency_for(kind, n, d);
  const CsrMatrix<double> adj_t = adj.transposed();
  const auto x = testing::random_dense<double>(n, k, d.features);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  Rng rng(d.labels);
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(k)));
  }

  // Sequential reference: `steps` SGD steps.
  GnnModel<double> seq_model(make_config(kind, k, layers, d));
  Trainer<double> trainer(seq_model, std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<double> ref_losses;
  for (int s = 0; s < d.steps; ++s) {
    ref_losses.push_back(trainer.step(adj, adj_t, x, labels).loss);
  }

  comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(kind, k, layers, d));
    DistEngine<double> engine(world, adj, model, shape);
    SgdOptimizer<double> opt(0.05);
    for (int s = 0; s < d.steps; ++s) {
      const auto res = engine.train_step(x, labels, opt);
      ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
          << to_string(kind) << " " << shape.describe() << " step " << s
          << " rank " << world.rank();
    }
    // Post-training parameters must match the sequential run on every rank —
    // including the replicas, whose gradients arrive via the world
    // allreduce only.
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      const auto& w_dist = model.layer(l).weights();
      const auto& w_seq = seq_model.layer(l).weights();
      for (index_t i = 0; i < w_seq.size(); ++i) {
        ASSERT_NEAR(w_dist.data()[i], w_seq.data()[i], 1e-8)
            << "layer " << l << " W[" << i << "]";
      }
      const auto& a_dist = model.layer(l).attention_params();
      const auto& a_seq = seq_model.layer(l).attention_params();
      for (std::size_t i = 0; i < a_seq.size(); ++i) {
        ASSERT_NEAR(a_dist[i], a_seq[i], 1e-8) << "layer " << l << " a[" << i << "]";
      }
    }
  });
}

// ---- 1.5D and 1D cases: the grid follows from the rank count ---------------

struct RanksCase {
  ModelKind kind;
  int ranks;
  index_t n;
  index_t k;
  int layers;
};

class DistEngineSweep : public ::testing::TestWithParam<RanksCase> {};

TEST_P(DistEngineSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  expect_inference_matches(grid_for(DistPolicy::k1_5D, p.ranks), p.kind, p.n,
                           p.k, p.layers);
}

TEST_P(DistEngineSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  expect_training_matches(grid_for(DistPolicy::k1_5D, p.ranks), p.kind, p.n,
                          p.k, p.layers, kTrainData);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistEngineSweep,
    ::testing::Values(RanksCase{ModelKind::kGCN, 4, 24, 4, 2},
                      RanksCase{ModelKind::kVA, 1, 20, 4, 2},
                      RanksCase{ModelKind::kVA, 4, 24, 4, 2},
                      RanksCase{ModelKind::kVA, 9, 25, 3, 2},
                      RanksCase{ModelKind::kAGNN, 4, 24, 4, 2},
                      RanksCase{ModelKind::kAGNN, 9, 26, 3, 2},
                      RanksCase{ModelKind::kGAT, 1, 20, 4, 2},
                      RanksCase{ModelKind::kGAT, 4, 24, 4, 2},
                      RanksCase{ModelKind::kGAT, 9, 26, 3, 3},
                      RanksCase{ModelKind::kGAT, 16, 33, 4, 2},
                      RanksCase{ModelKind::kGCN, 9, 25, 3, 3},
                      RanksCase{ModelKind::kGIN, 4, 24, 4, 2},
                      RanksCase{ModelKind::kGIN, 9, 26, 3, 2},
                      RanksCase{ModelKind::kVA, 16, 33, 4, 2}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_p" +
             std::to_string(tpi.param.ranks) + "_n" + std::to_string(tpi.param.n) +
             "_L" + std::to_string(tpi.param.layers);
    });

class Dist1dSweep : public ::testing::TestWithParam<RanksCase> {};

TEST_P(Dist1dSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  expect_training_matches(grid_for(DistPolicy::k1D, p.ranks), p.kind, p.n, p.k,
                          p.layers, kTrain1dData);
}

TEST_P(Dist1dSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  expect_inference_matches(grid_for(DistPolicy::k1D, p.ranks), p.kind, p.n, p.k,
                           p.layers);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Dist1dSweep,
    ::testing::Values(RanksCase{ModelKind::kGCN, 3, 22, 4, 2},
                      RanksCase{ModelKind::kVA, 3, 22, 4, 2},
                      RanksCase{ModelKind::kVA, 5, 23, 3, 2},
                      RanksCase{ModelKind::kAGNN, 3, 22, 4, 2},
                      RanksCase{ModelKind::kGAT, 3, 22, 4, 2},
                      RanksCase{ModelKind::kGAT, 5, 23, 3, 3},
                      RanksCase{ModelKind::kGIN, 3, 22, 4, 2},
                      RanksCase{ModelKind::kGIN, 5, 23, 3, 2}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_p" +
             std::to_string(tpi.param.ranks) + "_L" +
             std::to_string(tpi.param.layers);
    });

// ---- 2D / 3D cases: explicit (possibly rectangular) grid shapes ------------

struct SummaCase {
  ModelKind kind;
  GridShape shape;
  index_t n;
  index_t k;
  int layers;
};

class SummaEngineSweep : public ::testing::TestWithParam<SummaCase> {};

TEST_P(SummaEngineSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  expect_inference_matches(p.shape, p.kind, p.n, p.k, p.layers);
}

TEST_P(SummaEngineSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  expect_training_matches(p.shape, p.kind, p.n, p.k, p.layers, kTrainData);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SummaEngineSweep,
    ::testing::Values(
        SummaCase{ModelKind::kGCN, {DistPolicy::k2D, 2, 2, 1}, 23, 4, 2},
        SummaCase{ModelKind::kGCN, {DistPolicy::k3D, 2, 2, 2}, 26, 3, 2},
        SummaCase{ModelKind::kGIN, {DistPolicy::k2D, 3, 2, 1}, 25, 4, 2},
        SummaCase{ModelKind::kGIN, {DistPolicy::k3D, 2, 1, 4}, 23, 3, 2},
        SummaCase{ModelKind::kVA, {DistPolicy::k2D, 1, 1, 1}, 20, 4, 2},
        SummaCase{ModelKind::kVA, {DistPolicy::k2D, 3, 1, 1}, 22, 3, 2},
        SummaCase{ModelKind::kVA, {DistPolicy::k3D, 3, 2, 2}, 29, 4, 2},
        SummaCase{ModelKind::kAGNN, {DistPolicy::k2D, 2, 3, 1}, 25, 4, 2},
        SummaCase{ModelKind::kAGNN, {DistPolicy::k3D, 2, 2, 2}, 23, 3, 3},
        SummaCase{ModelKind::kGAT, {DistPolicy::k2D, 2, 2, 1}, 23, 4, 2},
        SummaCase{ModelKind::kGAT, {DistPolicy::k2D, 4, 2, 1}, 27, 3, 2},
        SummaCase{ModelKind::kGAT, {DistPolicy::k3D, 2, 2, 3}, 26, 4, 2},
        SummaCase{ModelKind::kGCN, {DistPolicy::k2D, 1, 3, 1}, 21, 4, 2}),
    [](const auto& tpi) {
      std::string shape = tpi.param.shape.describe();
      for (auto& ch : shape) {
        if (ch == ':' || ch == '.') ch = '_';
      }
      return std::string(to_string(tpi.param.kind)) + "_" + shape + "_n" +
             std::to_string(tpi.param.n);
    });

// ---- masked loss -------------------------------------------------------------

// The masked loss normalizes by the global active count and sums each input
// row once, whichever copy of a replicated block holds it.
void expect_masked_training_matches(const GridShape& shape) {
  const index_t n = 24, k = 3;
  const auto g = testing::small_graph<double>(n, 100, 29);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  const auto x = testing::random_dense<double>(n, k, 31);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = i % k;
    mask[static_cast<std::size_t>(i)] = (i % 3) != 0;
  }
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.seed = 71;
  GnnModel<double> seq(cfg);
  Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.02));
  const double ref_loss = trainer.step(g.adj, adj_t, x, labels, mask).loss;

  comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistEngine<double> engine(world, g.adj, model, shape);
    SgdOptimizer<double> opt(0.02);
    const auto res = engine.train_step(x, labels, opt, mask);
    EXPECT_NEAR(res.loss, ref_loss, 1e-9) << shape.describe();
  });
}

TEST(DistEngine, MaskedTrainingMatchesSequential) {
  expect_masked_training_matches(grid_for(DistPolicy::k1_5D, 4));
  expect_masked_training_matches(grid_for(DistPolicy::k1D, 3));
}

TEST(SummaEngine, MaskedTrainingMatchesSequential) {
  expect_masked_training_matches({DistPolicy::k2D, 3, 2, 1});
  expect_masked_training_matches({DistPolicy::k3D, 2, 2, 2});
}

// ---- grid routing --------------------------------------------------------------

TEST(DistEngine, NonSquareRankCountRejected) {
  // The 1.5D grid requires a perfect-square rank count; the check fires
  // deterministically on every rank before any collective, and the
  // structured error must name the family members that DO accept the count
  // so the failure is actionable.
  for (const int p : {2, 3, 6, 8, 12}) {
    try {
      ProcessGrid::side_for(p);
      FAIL() << "side_for must reject non-square p=" << p;
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("AGNN_DIST=1d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=2d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=3d"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(ProcessGrid::try_side_for(12), std::nullopt);
  EXPECT_EQ(ProcessGrid::try_side_for(9), 3);
}

TEST(SummaEngine, ShapeMustMatchTheRankCount) {
  const index_t n = 12, k = 2;
  const auto g = testing::small_graph<double>(n, 30, 61);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = k;
  cfg.layer_widths = {k};
  cfg.seed = 3;
  const CsrMatrix<double> adj = graph::sym_normalize(g.adj);
  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    EXPECT_THROW(DistEngine<double>(world, adj, model,
                                    GridShape{DistPolicy::k2D, 3, 2, 1}),
                 std::logic_error);
  });
}

// gather must reassemble rows in global order from the j-major owned blocks
// — the reorder is the subtle part, so pin it on a rectangular grid where
// block boundaries do not align.
TEST(SummaEngine, GatherOutputRestoresGlobalRowOrder) {
  const index_t n = 17, k = 3;
  const auto g = testing::small_graph<double>(n, 3 * n, 53);
  const auto x = testing::random_dense<double>(n, k, 59);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = k;
  cfg.layer_widths = {k};
  cfg.seed = 11;
  const CsrMatrix<double> adj = graph::sym_normalize(g.adj);
  GnnModel<double> seq(cfg);
  const auto ref = seq.infer(adj, x);
  const GridShape shape{DistPolicy::k2D, 2, 3, 1};
  comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistEngine<double> engine(world, adj, model, shape);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), n);
    ASSERT_EQ(out.cols(), k);
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-10) << "elem " << i;
    }
  });
}

// ---- the factory -----------------------------------------------------------------

// The factory must route every family member to an engine that reproduces
// the sequential model — the surface the benchmarks and the differential
// harness select at runtime.
TEST(EngineFactory, EveryPolicyMatchesSequential) {
  const index_t n = 24, k = 4;
  const auto g = testing::small_graph<double>(n, 5 * n, 37);
  const auto x = testing::random_dense<double>(n, k, 13);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4242;
  GnnModel<double> seq(cfg);
  const auto ref = seq.infer(g.adj, x);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  Rng rng(23);
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(k)));
  }
  std::vector<double> ref_losses;
  for (int s = 0; s < 2; ++s) {
    ref_losses.push_back(trainer.step(g.adj, adj_t, x, labels).loss);
  }

  struct PolicyCase {
    DistPolicy policy;
    int ranks;
    int depth_hint;
  };
  for (const PolicyCase pc :
       {PolicyCase{DistPolicy::k1D, 3, 0}, PolicyCase{DistPolicy::k1_5D, 4, 0},
        PolicyCase{DistPolicy::k2D, 6, 0}, PolicyCase{DistPolicy::k3D, 8, 2}}) {
    comm::SpmdRuntime::run(pc.ranks, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      auto engine =
          make_dist_engine(pc.policy, world, g.adj, model, pc.depth_hint);
      ASSERT_NE(engine, nullptr);
      EXPECT_EQ(engine->policy(), pc.policy);
      EXPECT_EQ(engine->num_vertices(), n);
      const auto out = engine->infer(x);
      ASSERT_EQ(out.rows(), ref.rows());
      for (index_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
            << to_string(pc.policy) << " p=" << pc.ranks << " elem " << i;
      }
      SgdOptimizer<double> opt(0.05);
      for (int s = 0; s < 2; ++s) {
        const auto res = engine->train_step(x, labels, opt);
        ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
            << to_string(pc.policy) << " step " << s;
      }
    });
  }
}

TEST(EngineFactory, EnvironmentKnobSelectsTheFamilyMember) {
  const index_t n = 18, k = 3;
  const auto g = testing::small_graph<double>(n, 4 * n, 41);
  const auto x = testing::random_dense<double>(n, k, 43);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.seed = 7;
  const CsrMatrix<double> adj = graph::sym_normalize(g.adj);
  GnnModel<double> seq(cfg);
  const auto ref = seq.infer(adj, x);

  ::setenv("AGNN_DIST", "2d", 1);
  comm::SpmdRuntime::run(6, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    auto engine = make_dist_engine_from_env(world, adj, model);
    EXPECT_EQ(engine->policy(), DistPolicy::k2D);
    const auto out = engine->infer(x);
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8) << "elem " << i;
    }
  });
  ::unsetenv("AGNN_DIST");

  // Unset: square counts route to the paper's 1.5D scheme.
  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    auto engine = make_dist_engine_from_env(world, adj, model);
    EXPECT_EQ(engine->policy(), DistPolicy::k1_5D);
  });
}

// ---- GAT attention heads: every policy -----------------------------------------

struct HeadsCase {
  DistPolicy policy;
  int ranks;
  int heads;  // per hidden layer; the output layer averages two
  int hidden_layers;
  index_t n;
};

GnnConfig heads_config(const HeadsCase& p) {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 5;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.hidden_layers) + 1, 3);
  cfg.heads = p.heads;
  cfg.out_heads = 2;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4096;
  return cfg;
}

class DistEngineHeadsSweep : public ::testing::TestWithParam<HeadsCase> {};

TEST_P(DistEngineHeadsSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 91 + p.n);
  const auto x = testing::random_dense<double>(p.n, 5, 93);
  GnnModel<double> seq(heads_config(p));
  const auto ref = seq.infer(g.adj, x);

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(heads_config(p));
    DistEngine<double> engine(world, g.adj, model, p.policy);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), ref.rows());
    ASSERT_EQ(out.cols(), ref.cols());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
          << "rank " << world.rank() << " elem " << i;
    }
  });
}

TEST_P(DistEngineHeadsSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 97 + p.n);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  const auto x = testing::random_dense<double>(p.n, 5, 99);
  std::vector<index_t> labels(static_cast<std::size_t>(p.n));
  Rng rng(101);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(3));

  // Sequential reference: two SGD steps.
  GnnModel<double> seq(heads_config(p));
  Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<double> ref_losses;
  for (int s = 0; s < 2; ++s) {
    ref_losses.push_back(trainer.step(g.adj, adj_t, x, labels).loss);
  }

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(heads_config(p));
    DistEngine<double> engine(world, g.adj, model, p.policy);
    SgdOptimizer<double> opt(0.05);
    for (int s = 0; s < 2; ++s) {
      const auto res = engine.train_step(x, labels, opt);
      ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
          << "step " << s << " rank " << world.rank();
    }
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      const auto& w_dist = model.layer(l).weights();
      const auto& w_seq = seq.layer(l).weights();
      for (index_t i = 0; i < w_seq.size(); ++i) {
        ASSERT_NEAR(w_dist.data()[i], w_seq.data()[i], 1e-8) << "layer " << l;
      }
      const auto& a_dist = model.layer(l).attention_params();
      const auto& a_seq = seq.layer(l).attention_params();
      for (std::size_t i = 0; i < a_seq.size(); ++i) {
        ASSERT_NEAR(a_dist[i], a_seq[i], 1e-8) << "layer " << l;
      }
    }
  });
}

// The six (ranks, heads, hidden layers, n) shapes, each under every policy.
std::vector<HeadsCase> heads_cases() {
  std::vector<HeadsCase> cases;
  for (const DistPolicy policy :
       {DistPolicy::k1D, DistPolicy::k1_5D, DistPolicy::k2D, DistPolicy::k3D}) {
    for (const HeadsCase c : {HeadsCase{policy, 1, 2, 1, 20}, HeadsCase{policy, 4, 1, 1, 24},
                              HeadsCase{policy, 4, 3, 1, 24}, HeadsCase{policy, 4, 2, 2, 24},
                              HeadsCase{policy, 9, 3, 1, 26}, HeadsCase{policy, 9, 2, 2, 27}}) {
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistEngineHeadsSweep, ::testing::ValuesIn(heads_cases()),
    [](const auto& tpi) {
      std::string policy = to_string(tpi.param.policy);
      policy.erase(std::remove(policy.begin(), policy.end(), '.'), policy.end());
      return policy + "_p" + std::to_string(tpi.param.ranks) + "_h" +
             std::to_string(tpi.param.heads) + "_L" +
             std::to_string(tpi.param.hidden_layers) + "_n" +
             std::to_string(tpi.param.n);
    });

// Per head, a layer moves its own s-vector, H' block, softmax reductions
// and Z block, so four heads move several times one head's bytes.
TEST(DistEngineHeads, VolumeScalesWithHeadCount) {
  const index_t n = 32;
  const auto g = testing::small_graph<double>(n, 200, 103);
  const auto x = testing::random_dense<double>(n, 5, 105);
  for (const DistPolicy policy :
       {DistPolicy::k1D, DistPolicy::k1_5D, DistPolicy::k2D, DistPolicy::k3D}) {
    auto volume_for = [&](int heads) {
      const HeadsCase p{policy, 4, heads, 1, n};
      const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
        GnnModel<double> model(heads_config(p));
        DistEngine<double> engine(world, g.adj, model, policy);
        comm::reset_all_stats(world);
        engine.forward(x, nullptr);
      });
      return comm::max_bytes_sent(stats);
    };
    const auto v1 = volume_for(1);
    const auto v4 = volume_for(4);
    EXPECT_GT(v4, 2 * v1) << to_string(policy);
    EXPECT_LT(v4, 6 * v1) << to_string(policy);
  }
}

// ---- volume ----------------------------------------------------------------------

TEST(Dist1d, VolumeIsThetaNkPerLayerAndExceeds15dAtScale) {
  const index_t n = 256, k = 8;
  const auto g = testing::small_graph<double>(n, 2000, 71);
  const auto x = testing::random_dense<double>(n, k, 73);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.seed = 2;

  auto volume = [&](DistPolicy policy, int ranks) {
    const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      DistEngine<double> engine(world, g.adj, model, policy);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    });
    return comm::max_bytes_sent(stats);
  };

  // 1D forward volume per layer ~ allgather (n - n/p) k + k^2: nearly flat
  // in p.
  const auto v1d_4 = volume(DistPolicy::k1D, 4);
  const auto v1d_16 = volume(DistPolicy::k1D, 16);
  const auto v1d_64 = volume(DistPolicy::k1D, 64);
  const double flat_ratio =
      static_cast<double>(v1d_16) / static_cast<double>(v1d_4);
  EXPECT_GT(flat_ratio, 0.9);
  EXPECT_LT(flat_ratio, 1.4);
  // 1.5D shrinks with sqrt(p): with ~4 block moves per layer it crosses the
  // 1D scheme around p = 16 and wins clearly at p = 64 (the Section 6.3
  // rationale for the 1.5D choice at scale).
  EXPECT_LT(volume(DistPolicy::k1_5D, 64), v1d_64 / 1.5);
  EXPECT_LT(volume(DistPolicy::k1_5D, 64), volume(DistPolicy::k1_5D, 16));
}

}  // namespace
}  // namespace agnn::dist
