// Verification of the Section 7 communication bounds on the simulated
// cluster: per-layer volume of the global formulation must scale as
// O(n k / sqrt(p) + k^2) per rank, and be independent of the edge density —
// while the local formulation's volume grows with the degree.
#include <gtest/gtest.h>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

GnnConfig config_for(ModelKind kind, index_t k, int layers) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.seed = 1;
  return cfg;
}

// Max per-rank bytes for one global-formulation forward pass.
std::uint64_t global_forward_volume(const CsrMatrix<double>& adj, ModelKind kind,
                                    index_t k, int layers, int ranks) {
  const auto x = testing::random_dense<double>(adj.rows(), k, 5);
  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(config_for(kind, k, layers));
    dist::DistEngine<double> engine(world, adj, model, dist::DistPolicy::k1_5D);
    comm::reset_all_stats(world);
    engine.forward(x, nullptr);
  });
  return comm::max_bytes_sent(stats);
}

std::uint64_t local_forward_volume(const CsrMatrix<double>& adj, ModelKind kind,
                                   index_t k, int layers, int ranks) {
  const auto x = testing::random_dense<double>(adj.rows(), k, 5);
  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(config_for(kind, k, layers));
    baseline::DistLocalEngine<double> engine(world, adj, model);
    comm::reset_all_stats(world);
    engine.forward(x, nullptr);
  });
  return comm::max_bytes_sent(stats);
}

class VolumeModelSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(VolumeModelSweep, GlobalVolumeWithinConstantOfBound) {
  // Bound: c * (n k / sqrt(p) + k^2) words per rank per layer.
  const index_t n = 64, k = 8;
  const int layers = 2, ranks = 16;
  const auto g = testing::small_graph<double>(n, 800, 7);
  const auto vol = global_forward_volume(g.adj, GetParam(), k, layers, ranks);
  const double q = 4.0;  // sqrt(p)
  const double bound_words =
      static_cast<double>(layers) *
      (static_cast<double>(n * k) / q + static_cast<double>(k * k));
  const double vol_words = static_cast<double>(vol) / sizeof(double);
  // The scheme uses a small constant number of block moves per layer
  // (partner exchange, row/col allreduce, redistribution): allow c <= 10.
  EXPECT_LT(vol_words, 10.0 * bound_words) << to_string(GetParam());
  EXPECT_GT(vol_words, 0.0);
}

TEST_P(VolumeModelSweep, GlobalVolumeIndependentOfDensity) {
  // Section 7.1: the sparse blocks never move, so the volume must not grow
  // with the number of edges.
  const index_t n = 64, k = 8;
  const auto sparse_g = testing::small_graph<double>(n, 200, 11);
  const auto dense_g = testing::small_graph<double>(n, 2000, 13);
  const auto v_sparse = global_forward_volume(sparse_g.adj, GetParam(), k, 2, 16);
  const auto v_dense = global_forward_volume(dense_g.adj, GetParam(), k, 2, 16);
  EXPECT_EQ(v_sparse, v_dense) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, VolumeModelSweep,
                         ::testing::Values(ModelKind::kVA, ModelKind::kAGNN,
                                           ModelKind::kGAT),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(CommVolume, LocalVolumeGrowsWithDensityGlobalDoesNot) {
  // The crossover driver of Section 7: local-formulation volume ~ d*n*k/p
  // grows with degree d, global ~ n*k/sqrt(p) does not. The sparse graph
  // must stay below ghost saturation (d*n/p << n) for the growth to show.
  const index_t n = 256, k = 8;
  const auto sparse_g = testing::small_graph<double>(n, 128, 17);   // d ~ 1-2
  const auto dense_g = testing::small_graph<double>(n, 4000, 19);   // d ~ 30
  const auto lg_sparse = local_forward_volume(sparse_g.adj, ModelKind::kVA, k, 2, 4);
  const auto lg_dense = local_forward_volume(dense_g.adj, ModelKind::kVA, k, 2, 4);
  EXPECT_GT(lg_dense, lg_sparse * 2) << "local volume must grow with density";

  const auto gg_sparse = global_forward_volume(sparse_g.adj, ModelKind::kVA, k, 2, 4);
  const auto gg_dense = global_forward_volume(dense_g.adj, ModelKind::kVA, k, 2, 4);
  EXPECT_EQ(gg_sparse, gg_dense);
}

TEST(CommVolume, GlobalBeatsLocalOnDenseGraphs) {
  // For d in omega(sqrt(p)) the global formulation must move fewer bytes.
  // With the scheme's ~4 block moves per layer the constants demand a
  // reasonably large p: at p = 100 (q = 10) and a near-complete graph the
  // global volume n*k/sqrt(p) clearly undercuts the local ~n*k.
  const index_t n = 200, k = 8;
  const auto g = testing::small_graph<double>(n, 30000, 23);  // d ~ n
  const auto v_global = global_forward_volume(g.adj, ModelKind::kVA, k, 2, 100);
  const auto v_local = local_forward_volume(g.adj, ModelKind::kVA, k, 2, 100);
  EXPECT_LT(v_global, v_local);
}

TEST(CommVolume, TrainingVolumeSameOrderAsInference) {
  // Section 7.2: training costs asymptotically the same communication as
  // inference — check the ratio is a small constant.
  const index_t n = 64, k = 8;
  const auto g = testing::small_graph<double>(n, 800, 29);
  const auto x = testing::random_dense<double>(n, k, 31);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;

  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT}) {
    std::uint64_t vol_infer = 0, vol_train = 0;
    {
      const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
        GnnModel<double> model(config_for(kind, k, 2));
        dist::DistEngine<double> engine(world, g.adj, model,
                                        dist::DistPolicy::k1_5D);
        comm::reset_all_stats(world);
        engine.forward(x, nullptr);
      });
      vol_infer = comm::max_bytes_sent(stats);
    }
    {
      const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
        GnnModel<double> model(config_for(kind, k, 2));
        dist::DistEngine<double> engine(world, g.adj, model,
                                        dist::DistPolicy::k1_5D);
        SgdOptimizer<double> opt(0.01);
        comm::reset_all_stats(world);
        engine.train_step(x, labels, opt);
      });
      vol_train = comm::max_bytes_sent(stats);
    }
    EXPECT_GT(vol_train, vol_infer) << to_string(kind);
    EXPECT_LT(vol_train, 8 * vol_infer) << to_string(kind);
  }
}

TEST(CommVolume, GlobalVolumeScalesInverseSqrtP) {
  // Doubling sqrt(p) should roughly halve the dominant n*k/sqrt(p) term.
  const index_t n = 96, k = 8;
  const auto g = testing::small_graph<double>(n, 1500, 37);
  const auto v4 = global_forward_volume(g.adj, ModelKind::kVA, k, 2, 4);    // q=2
  const auto v16 = global_forward_volume(g.adj, ModelKind::kVA, k, 2, 16);  // q=4
  // v16 per-rank should be clearly below v4 (between 1/2 and ~1x, with the
  // k^2 and log-p terms softening the ideal halving).
  EXPECT_LT(v16, v4);
  EXPECT_GT(static_cast<double>(v16), 0.25 * static_cast<double>(v4));
}

}  // namespace
}  // namespace agnn
