// The distributed local-formulation (ghost-exchange) engine must also
// reproduce the sequential engine exactly — it is the same mathematics with
// the message-passing communication pattern.
#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::baseline {
namespace {

struct LocalCase {
  ModelKind kind;
  int ranks;
  index_t n;
  index_t k;
  int layers;
};

GnnConfig make_config(const LocalCase& p) {
  GnnConfig cfg;
  cfg.kind = p.kind;
  cfg.in_features = p.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.layers), p.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 888;
  return cfg;
}

class DistLocalSweep : public ::testing::TestWithParam<LocalCase> {};

TEST_P(DistLocalSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 31 + p.n);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto x = testing::random_dense<double>(p.n, p.k, 37);
  GnnModel<double> seq_model(make_config(p));
  const auto ref = seq_model.infer(adj, x);

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(p));
    DistLocalEngine<double> engine(world, adj, model);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), ref.rows());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
          << to_string(p.kind) << " rank " << world.rank();
    }
  });
}

TEST_P(DistLocalSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 41 + p.n);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const CsrMatrix<double> adj_t = adj.transposed();
  const auto x = testing::random_dense<double>(p.n, p.k, 43);
  std::vector<index_t> labels(static_cast<std::size_t>(p.n));
  Rng rng(47);
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(p.k)));
  }

  GnnModel<double> seq_model(make_config(p));
  Trainer<double> trainer(seq_model, std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<double> ref_losses;
  for (int s = 0; s < 3; ++s) {
    ref_losses.push_back(trainer.step(adj, adj_t, x, labels).loss);
  }

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(p));
    DistLocalEngine<double> engine(world, adj, model);
    SgdOptimizer<double> opt(0.05);
    for (int s = 0; s < 3; ++s) {
      const auto res = engine.train_step(x, labels, opt);
      ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
          << to_string(p.kind) << " step " << s;
    }
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      const auto& w_dist = model.layer(l).weights();
      const auto& w_seq = seq_model.layer(l).weights();
      for (index_t i = 0; i < w_seq.size(); ++i) {
        ASSERT_NEAR(w_dist.data()[i], w_seq.data()[i], 1e-8);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistLocalSweep,
    ::testing::Values(LocalCase{ModelKind::kGCN, 3, 22, 4, 2},
                      LocalCase{ModelKind::kVA, 1, 20, 4, 2},
                      LocalCase{ModelKind::kVA, 3, 22, 4, 2},
                      LocalCase{ModelKind::kVA, 5, 23, 3, 2},
                      LocalCase{ModelKind::kAGNN, 3, 22, 4, 2},
                      LocalCase{ModelKind::kAGNN, 5, 23, 3, 2},
                      LocalCase{ModelKind::kGAT, 1, 20, 4, 2},
                      LocalCase{ModelKind::kGAT, 3, 22, 4, 2},
                      LocalCase{ModelKind::kGAT, 5, 23, 3, 3},
                      LocalCase{ModelKind::kGCN, 7, 30, 3, 2},
                      LocalCase{ModelKind::kGIN, 3, 22, 4, 2},
                      LocalCase{ModelKind::kGIN, 5, 23, 3, 2},
                      LocalCase{ModelKind::kGAT, 7, 30, 3, 2}),
    [](const auto& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_p" +
             std::to_string(tpi.param.ranks) + "_n" + std::to_string(tpi.param.n) +
             "_L" + std::to_string(tpi.param.layers);
    });

// The ghost-exchange engine is the single-head DistDGL stand-in: a GAT
// model with attention heads is refused on every rank, naming the count.
TEST(DistLocal, RefusesAttentionHeads) {
  const auto g = testing::small_graph<double>(12, 50, 7);
  comm::SpmdRuntime::run(2, [&](comm::Communicator& world) {
    GnnConfig cfg;
    cfg.kind = ModelKind::kGAT;
    cfg.in_features = 3;
    cfg.layer_widths = {3};
    cfg.out_heads = 2;
    GnnModel<double> model(cfg);
    try {
      DistLocalEngine<double> engine(world, g.adj, model);
      ADD_FAILURE() << "expected the head count to be refused";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("one attention head, layer 0 has 2"),
                std::string::npos)
          << e.what();
    }
  });
}

TEST(DistLocal, GhostCountMatchesRemoteNeighborSet) {
  const index_t n = 30;
  const auto g = testing::small_graph<double>(n, 150, 51);
  comm::SpmdRuntime::run(3, [&](comm::Communicator& world) {
    GnnConfig cfg;
    cfg.kind = ModelKind::kVA;
    cfg.in_features = 2;
    cfg.layer_widths = {2};
    GnnModel<double> model(cfg);
    DistLocalEngine<double> engine(world, g.adj, model);
    // Manually count distinct remote neighbors of the owned rows.
    const auto vr = engine.owned_block();
    std::vector<bool> remote(static_cast<std::size_t>(n), false);
    index_t count = 0;
    for (index_t i = vr.begin; i < vr.end; ++i) {
      for (index_t e = g.adj.row_begin(i); e < g.adj.row_end(i); ++e) {
        const index_t c = g.adj.col_at(e);
        if ((c < vr.begin || c >= vr.end) && !remote[static_cast<std::size_t>(c)]) {
          remote[static_cast<std::size_t>(c)] = true;
          ++count;
        }
      }
    }
    EXPECT_EQ(engine.num_ghosts(), count);
  });
}

TEST(DistLocal, VolumeScalesWithGhostsTimesFeatures) {
  // One forward layer must move ~ghosts * k words per rank (plus the k^2
  // parameter broadcast) — the Theta(nkd/p) local-formulation cost.
  const index_t n = 48, k = 8;
  const auto g = testing::small_graph<double>(n, 600, 53);
  const auto x = testing::random_dense<double>(n, k, 55);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = k;
  cfg.layer_widths = {k};
  cfg.seed = 3;

  const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistLocalEngine<double> engine(world, graph::sym_normalize(g.adj), model);
    comm::reset_all_stats(world);
    engine.forward(x, nullptr);
  });
  // Total ghost fetch volume: every rank's ghosts were pulled from owners.
  std::uint64_t total_ghosts = 0;
  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistLocalEngine<double> engine(world, graph::sym_normalize(g.adj), model);
    if (world.rank() == 0) total_ghosts = 0;
    world.barrier();
    static std::mutex mu;
    {
      std::lock_guard<std::mutex> lock(mu);
      total_ghosts += static_cast<std::uint64_t>(engine.num_ghosts());
    }
    world.barrier();
  });
  const std::uint64_t expected_ghost_bytes = total_ghosts * k * sizeof(double);
  const std::uint64_t param_bytes = 4 * (k * k) * sizeof(double);  // bcast per rank
  EXPECT_EQ(comm::total_bytes_sent(stats), expected_ghost_bytes + param_bytes);
}

}  // namespace
}  // namespace agnn::baseline
