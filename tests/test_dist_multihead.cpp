// The distributed multi-head GAT engine must reproduce the sequential
// multi-head model exactly: inference, training losses, and post-training
// parameters, across grid sizes and head/layer configurations.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "core/multihead_gat.hpp"
#include "dist/dist_multihead.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

struct MhCase {
  int ranks;
  int heads;
  int hidden_layers;
  index_t n;
};

typename MultiHeadGat<double>::Config make_config(const MhCase& p) {
  typename MultiHeadGat<double>::Config cfg;
  cfg.in_features = 5;
  cfg.head_features = 3;
  cfg.heads = p.heads;
  cfg.out_features = 3;
  cfg.out_heads = 2;
  cfg.hidden_layers = p.hidden_layers;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4096;
  return cfg;
}

class DistMultiHeadSweep : public ::testing::TestWithParam<MhCase> {};

TEST_P(DistMultiHeadSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 91 + p.n);
  const auto x = testing::random_dense<double>(p.n, 5, 93);
  MultiHeadGat<double> seq(make_config(p));
  const auto ref = seq.infer(g.adj, x);

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    MultiHeadGat<double> model(make_config(p));
    DistMultiHeadGatEngine<double> engine(world, g.adj, model);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), ref.rows());
    ASSERT_EQ(out.cols(), ref.cols());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
          << "rank " << world.rank() << " elem " << i;
    }
  });
}

TEST_P(DistMultiHeadSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 97 + p.n);
  const auto x = testing::random_dense<double>(p.n, 5, 99);
  std::vector<index_t> labels(static_cast<std::size_t>(p.n));
  Rng rng(101);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(3));

  // Sequential reference: two SGD steps.
  MultiHeadGat<double> seq(make_config(p));
  SgdOptimizer<double> seq_opt(0.05);
  std::vector<double> ref_losses;
  for (int s = 0; s < 2; ++s) {
    std::vector<MultiHeadCache<double>> caches;
    const auto h = seq.forward(g.adj, x, caches);
    const auto loss = softmax_cross_entropy<double>(h, labels);
    ref_losses.push_back(loss.value);
    seq.apply_gradients(seq.backward(g.adj, caches, loss.grad), seq_opt);
  }

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    MultiHeadGat<double> model(make_config(p));
    DistMultiHeadGatEngine<double> engine(world, g.adj, model);
    SgdOptimizer<double> opt(0.05);
    for (int s = 0; s < 2; ++s) {
      const auto res = engine.train_step(x, labels, opt);
      ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
          << "step " << s << " rank " << world.rank();
    }
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      for (int hd = 0; hd < model.layer(l).num_heads(); ++hd) {
        const auto& w_dist = model.layer(l).head(hd).w;
        const auto& w_seq = seq.layer(l).head(hd).w;
        for (index_t i = 0; i < w_seq.size(); ++i) {
          ASSERT_NEAR(w_dist.data()[i], w_seq.data()[i], 1e-8)
              << "layer " << l << " head " << hd;
        }
        const auto& a_dist = model.layer(l).head(hd).a;
        const auto& a_seq = seq.layer(l).head(hd).a;
        for (std::size_t i = 0; i < a_seq.size(); ++i) {
          ASSERT_NEAR(a_dist[i], a_seq[i], 1e-8);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistMultiHeadSweep,
    ::testing::Values(MhCase{1, 2, 1, 20}, MhCase{4, 1, 1, 24},
                      MhCase{4, 3, 1, 24}, MhCase{4, 2, 2, 24},
                      MhCase{9, 3, 1, 26}, MhCase{9, 2, 2, 27}),
    [](const auto& tpi) {
      std::string name = "p";
      name += std::to_string(tpi.param.ranks) + "_h" +
              std::to_string(tpi.param.heads) + "_L" +
              std::to_string(tpi.param.hidden_layers) + "_n" +
              std::to_string(tpi.param.n);
      return name;
    });

TEST(DistMultiHead, VolumeScalesWithHeadCount) {
  const index_t n = 32;
  const auto g = testing::small_graph<double>(n, 200, 103);
  const auto x = testing::random_dense<double>(n, 5, 105);
  auto volume_for = [&](int heads) {
    MhCase p{4, heads, 1, n};
    const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
      MultiHeadGat<double> model(make_config(p));
      DistMultiHeadGatEngine<double> engine(world, g.adj, model);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    });
    return comm::max_bytes_sent(stats);
  };
  const auto v1 = volume_for(1);
  const auto v4 = volume_for(4);
  // Per-head terms dominate: 4 heads ~ 3-4x the single-head volume (the
  // combined-Z redistribution grows with the concat width too).
  EXPECT_GT(v4, 2 * v1);
  EXPECT_LT(v4, 6 * v1);
}

}  // namespace
}  // namespace agnn::dist
