// The closed-form volume predictions must match the engines' measured
// volumes EXACTLY (byte-for-byte) — the strongest possible check that the
// implementation realizes the Section 7 communication scheme and nothing
// more.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "dist/volume_model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

GnnConfig config_for(ModelKind kind, index_t k, int layers) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.seed = 1;
  return cfg;
}

struct VolumeCase {
  ModelKind kind;
  int ranks;
  index_t n;  // divisible by sqrt(ranks) for exactness
  index_t k;
  int layers;
};

class ExactVolumeSweep : public ::testing::TestWithParam<VolumeCase> {};

TEST_P(ExactVolumeSweep, GlobalEngineMatchesClosedFormExactly) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 6 * p.n, 7);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto x = testing::random_dense<double>(p.n, p.k, 9);

  const auto stats = comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(config_for(p.kind, p.k, p.layers));
    DistEngine<double> engine(world, adj, model, DistPolicy::k1_5D);
    comm::reset_all_stats(world);
    engine.forward(x, nullptr);
  });
  const double predicted_bytes =
      p.layers * predicted_global_forward_words(p.kind, p.n, p.k, p.ranks) *
      sizeof(double);
  // Diagonal grid ranks are their own transpose partner, so their block
  // exchanges are free; the prediction is exact for the max (off-diagonal)
  // rank when n divides evenly.
  EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)), predicted_bytes)
      << to_string(p.kind) << " p=" << p.ranks;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExactVolumeSweep,
    ::testing::Values(VolumeCase{ModelKind::kGCN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kVA, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kVA, 9, 36, 8, 1},
                      VolumeCase{ModelKind::kAGNN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kAGNN, 16, 32, 4, 3},
                      VolumeCase{ModelKind::kGAT, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kGAT, 9, 36, 8, 1},
                      VolumeCase{ModelKind::kGIN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kGIN, 9, 36, 3, 2},
                      VolumeCase{ModelKind::kGCN, 16, 64, 8, 3}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_p" +
             std::to_string(tpi.param.ranks) + "_n" + std::to_string(tpi.param.n) +
             "_k" + std::to_string(tpi.param.k) + "_L" +
             std::to_string(tpi.param.layers);
    });

TEST(VolumeModel, SingleRankIsFree) {
  EXPECT_EQ(predicted_global_forward_words(ModelKind::kGAT, 100, 16, 1), 0.0);
  EXPECT_EQ(predicted_1d_forward_words(100, 16, 1, ModelKind::kGAT), 0.0);
  EXPECT_EQ(predicted_summa_forward_words(ModelKind::kGAT, 100, 16,
                                          GridShape{DistPolicy::k2D, 1, 1, 1}),
            0.0);
}

// The per-rank protocol replay must match the SUMMA engines byte-for-byte
// on every family shape — including the rectangular, prime, and
// depth-replicated grids, with a vertex count (23) nothing divides.
TEST(VolumeModel, SummaFamilyMatchesMeasuredExactly) {
  const index_t n = 23, k = 4;
  const int layers = 2;
  const auto g = testing::small_graph<double>(n, 5 * n, 123);
  const auto x = testing::random_dense<double>(n, k, 13);
  const GridShape shapes[] = {
      {DistPolicy::k2D, 2, 2, 1}, {DistPolicy::k2D, 3, 2, 1},
      {DistPolicy::k2D, 2, 3, 1}, {DistPolicy::k2D, 3, 1, 1},
      {DistPolicy::k2D, 1, 3, 1}, {DistPolicy::k3D, 3, 2, 2},
      {DistPolicy::k3D, 2, 2, 2}, {DistPolicy::k3D, 2, 1, 4},
  };
  for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kGIN, ModelKind::kVA,
                               ModelKind::kAGNN, ModelKind::kGAT}) {
    const CsrMatrix<double> adj =
        kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
    for (const GridShape& shape : shapes) {
      const auto stats =
          comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, layers));
            DistEngine<double> engine(world, adj, model, shape);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted_bytes =
          layers * predicted_summa_forward_words(kind, n, k, shape) *
          sizeof(double);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)),
                predicted_bytes)
          << to_string(kind) << " " << shape.describe();
    }
  }
}

// Same byte-exactness for the 1D row-block engine, whose only volume is the
// parameter broadcast plus the per-layer allgather.
TEST(VolumeModel, OneDMatchesMeasuredExactly) {
  const index_t n = 23, k = 4;
  const int layers = 2;
  const auto g = testing::small_graph<double>(n, 5 * n, 123);
  const auto x = testing::random_dense<double>(n, k, 13);
  for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kGIN, ModelKind::kVA,
                               ModelKind::kAGNN, ModelKind::kGAT}) {
    const CsrMatrix<double> adj =
        kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
    for (const int p : {2, 3, 5}) {
      const auto stats =
          comm::SpmdRuntime::run(p, [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, layers));
            DistEngine<double> engine(world, adj, model, DistPolicy::k1D);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted_bytes =
          layers * predicted_1d_forward_words(n, k, p, kind) * sizeof(double);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)),
                predicted_bytes)
          << to_string(kind) << " p=" << p;
    }
  }
}

// The policy dispatcher must agree with the per-family replays it routes to.
TEST(VolumeModel, PolicyDispatchMatchesFamilyReplays) {
  const index_t n = 96, k = 8;
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k1D, ModelKind::kVA, n,
                                           k, 6),
            predicted_1d_forward_words(n, k, 6, ModelKind::kVA));
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k1_5D, ModelKind::kGAT,
                                           n, k, 9),
            predicted_global_forward_words(ModelKind::kGAT, n, k, 9));
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k2D, ModelKind::kGIN, n,
                                           k, 6),
            predicted_summa_forward_words(ModelKind::kGIN, n, k,
                                          grid_for(DistPolicy::k2D, 6)));
  EXPECT_EQ(
      predicted_policy_forward_words(DistPolicy::k3D, ModelKind::kAGNN, n, k,
                                     8, /*depth_hint=*/2),
      predicted_summa_forward_words(ModelKind::kAGNN, n, k,
                                    grid_for(DistPolicy::k3D, 8, 2)));
}

// Every family member's exact replay must stay within a fixed constant of
// its closed-form asymptotic bound across a sweep — the policy-generalized
// Section 7.1 statement.
TEST(VolumeModel, PolicyBoundsDominateAsConstantFactor) {
  for (const index_t n : {64, 256, 1024}) {
    for (const index_t k : {4, 16, 64}) {
      for (const int p : {4, 6, 16, 24, 64}) {
        for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN,
                                     ModelKind::kGAT, ModelKind::kGCN,
                                     ModelKind::kGIN}) {
          for (const DistPolicy policy :
               {DistPolicy::k1D, DistPolicy::k1_5D, DistPolicy::k2D,
                DistPolicy::k3D}) {
            if (!policy_accepts(policy, p)) continue;
            const double exact =
                predicted_policy_forward_words(policy, kind, n, k, p);
            const double bound = policy_bound_words(policy, n, k, p);
            EXPECT_LT(exact, 7.0 * bound)
                << to_string(policy) << " " << to_string(kind) << " n=" << n
                << " k=" << k << " p=" << p;
          }
        }
      }
    }
  }
}

// The asymptotic ladder: at a fixed rank count, each richer member's bound
// is no worse than the one below it (1D >= 1.5D on squares; 2D >= 3D).
TEST(VolumeModel, FamilyBoundsFormALadder) {
  const index_t n = 4096, k = 32;
  for (const int p : {16, 64}) {
    const double b1 = policy_bound_words(DistPolicy::k1D, n, k, p);
    const double b15 = policy_bound_words(DistPolicy::k1_5D, n, k, p);
    const double b2 = policy_bound_words(DistPolicy::k2D, n, k, p);
    const double b3 = policy_bound_words(DistPolicy::k3D, n, k, p, 2);
    EXPECT_GE(b1, b15) << p;
    EXPECT_GE(b1, b2) << p;
    EXPECT_GE(b2, b3) << p;
  }
}

TEST(VolumeModel, Section7BoundDominatesAsConstantFactor) {
  // The engine's exact volume must stay within a fixed constant of the
  // Section 7 bound across a sweep of (n, k, p).
  for (const index_t n : {64, 256, 1024}) {
    for (const index_t k : {4, 16, 64}) {
      for (const int p : {4, 16, 64}) {
        for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN,
                                     ModelKind::kGAT, ModelKind::kGCN,
                                     ModelKind::kGIN}) {
          const double exact = predicted_global_forward_words(kind, n, k, p);
          const double bound = section7_bound_words(n, k, p);
          EXPECT_LT(exact, 7.0 * bound)
              << to_string(kind) << " n=" << n << " k=" << k << " p=" << p;
        }
      }
    }
  }
}

// Max per-rank bytes of one 2-layer train_step (n = 64, k = 8, p = 4; 3D at
// p = 8 with depth 2), as each policy moved them while the engines wrote the
// backward three times. With one backward form (G fetched once, one column
// reduce per layer) no entry may grow, and 1.5D VA and AGNN, which also
// exchanged M = G W^T and reduced each column-side term on its own, shrink.
TEST(VolumeModel, TrainingStepMovesNoMoreThanPinnedTable) {
  struct Pin {
    ModelKind kind;
    std::uint64_t bytes[4];  // 1D, 1.5D, 2D, 3D
  };
  const Pin pins[] = {
      {ModelKind::kVA, {25616, 48144, 39952, 37904}},
      {ModelKind::kAGNN, {25616, 58896, 50448, 48400}},
      {ModelKind::kGAT, {26384, 34576, 34064, 32016}},
      {ModelKind::kGCN, {25616, 27664, 27664, 25616}},
      {ModelKind::kGIN, {28688, 38928, 34832, 32784}},
  };
  struct PolicyRun {
    DistPolicy policy;
    int ranks;
    int depth_hint;
  };
  const PolicyRun runs[] = {{DistPolicy::k1D, 4, 0},
                            {DistPolicy::k1_5D, 4, 0},
                            {DistPolicy::k2D, 4, 0},
                            {DistPolicy::k3D, 8, 2}};
  const index_t n = 64, k = 8;
  const auto g = testing::small_graph<double>(n, 600, 29);
  const auto x = testing::random_dense<double>(n, k, 31);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;
  for (const Pin& pin : pins) {
    for (std::size_t r = 0; r < std::size(runs); ++r) {
      const PolicyRun& run = runs[r];
      const auto stats =
          comm::SpmdRuntime::run(run.ranks, [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(pin.kind, k, 2));
            DistEngine<double> engine(world, g.adj, model, run.policy,
                                      run.depth_hint);
            SgdOptimizer<double> opt(0.01);
            comm::reset_all_stats(world);
            engine.train_step(x, labels, opt);
          });
      const std::uint64_t bytes = comm::max_bytes_sent(stats);
      EXPECT_LE(bytes, pin.bytes[r])
          << to_string(pin.kind) << " " << to_string(run.policy);
      if (run.policy == DistPolicy::k1_5D &&
          (pin.kind == ModelKind::kVA || pin.kind == ModelKind::kAGNN)) {
        EXPECT_LT(bytes, pin.bytes[r]) << to_string(pin.kind);
      }
    }
  }
}

TEST(VolumeModel, LocalEnginePredictionMatchesMeasuredExactly) {
  const index_t n = 36, k = 8;
  const auto g = testing::small_graph<double>(n, 250, 13);
  const auto x = testing::random_dense<double>(n, k, 15);
  for (const int ranks : {2, 3, 4}) {
    for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kVA, ModelKind::kAGNN,
                                 ModelKind::kGIN, ModelKind::kGAT}) {
      const CsrMatrix<double> adj =
          kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
      const auto stats =
          comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, 1));
            baseline::DistLocalEngine<double> engine(world, adj, model);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted = predicted_local_forward_bytes(
          adj, ranks, k, /*has_attention_vector=*/kind == ModelKind::kGAT,
          /*has_second_matrix=*/kind == ModelKind::kGIN);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)), predicted)
          << to_string(kind) << " p=" << ranks;
    }
  }
}

TEST(VolumeModel, GlobalScalesDownLocalDoesNot) {
  // As p grows at fixed n, the global per-rank prediction shrinks ~1/sqrt(p)
  // while the dense-graph local prediction stays ~n*k.
  const index_t n = 144, k = 16;
  const double g4 = predicted_global_forward_words(ModelKind::kVA, n, k, 4);
  const double g16 = predicted_global_forward_words(ModelKind::kVA, n, k, 16);
  const double g144 = predicted_global_forward_words(ModelKind::kVA, n, k, 144);
  EXPECT_GT(g4, 1.8 * g16);
  EXPECT_GT(g16, 2.0 * g144);
}

}  // namespace
}  // namespace agnn::dist
