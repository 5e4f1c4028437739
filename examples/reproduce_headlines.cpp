// One-shot reproduction of the paper's three headline claims, printed as a
// live paper-vs-measured table (a compact, fast alternative to running the
// full benchmark harness; see EXPERIMENTS.md for the complete sweeps).
//
//   1. The global formulation beats the local (message-passing) formulation
//      by ~4x for large k at scale (Fig. 6 regime).
//   2. Per-rank communication volume follows O(n k / sqrt(p) + k^2): the
//      measured/bound ratio is constant in p (Section 7).
//   3. Fused Psi kernels beat unfused (n x n materializing) execution by
//      >20x (Section 6.2).
//
//   ./build/examples/reproduce_headlines
#include <cstdio>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "dist/volume_model.hpp"
#include "graph/graph.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/kronecker.hpp"
#include "tensor/fused.hpp"
#include "tensor/reference_impls.hpp"

namespace {

using namespace agnn;

GnnConfig gat_config(index_t k) {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, k, k};
  cfg.seed = 4;
  return cfg;
}

double modeled_train_step(const CsrMatrix<float>& adj, index_t k, int ranks,
                          bool global) {
  const comm::CostModel cost{.alpha = 1.5e-6, .beta = 1.0 / 10.0e9};
  Rng rng(6);
  DenseMatrix<float> x(adj.rows(), k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(adj.rows()));
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(k)));
  }
  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<float> model(gat_config(k));
    SgdOptimizer<float> opt(0.01f);
    if (global) {
      dist::DistEngine<float> engine(world, adj, model, dist::DistPolicy::k1_5D);
      engine.train_step(x, labels, opt);
      comm::reset_all_stats(world);
      engine.train_step(x, labels, opt);
    } else {
      baseline::DistLocalEngine<float> engine(world, adj, model);
      engine.train_step(x, labels, opt);
      comm::reset_all_stats(world);
      engine.train_step(x, labels, opt);
    }
  });
  return cost.total_time(stats);
}

}  // namespace

int main() {
  std::printf("=== Headline 1: global vs local formulation, GAT k=128 ===\n");
  std::printf("paper: 4-5x over DistDGL for large k at scale (Fig. 6)\n");
  {
    const auto g = graph::build_graph<float>(
        graph::generate_kronecker({.scale = 11, .edges = 40000, .seed = 1}));
    const index_t k = 128;
    for (const int p : {16, 64}) {
      const double tg = modeled_train_step(g.adj, k, p, true);
      const double tl = modeled_train_step(g.adj, k, p, false);
      std::printf("  p=%-3d global %7.2f ms   local %7.2f ms   speedup %.2fx\n",
                  p, 1e3 * tg, 1e3 * tl, tl / tg);
    }
  }

  std::printf("\n=== Headline 2: volume O(n k / sqrt(p) + k^2) (Section 7) ===\n");
  std::printf("paper: constant measured/bound ratio across p\n");
  {
    const auto g = graph::build_graph<float>(
        graph::generate_erdos_renyi({.n = 1024, .q = 0.01, .seed = 2}));
    Rng rng(3);
    DenseMatrix<float> x(1024, 16);
    x.fill_uniform(rng, -1.0, 1.0);
    for (const int p : {4, 16, 64}) {
      const auto stats = comm::SpmdRuntime::run(p, [&](comm::Communicator& world) {
        GnnModel<float> model(gat_config(16));
        dist::DistEngine<float> engine(world, g.adj, model,
                                       dist::DistPolicy::k1_5D);
        comm::reset_all_stats(world);
        engine.forward(x, nullptr);
      });
      const double measured =
          static_cast<double>(comm::max_bytes_sent(stats)) / sizeof(float);
      const double bound = 3 * dist::section7_bound_words(1024, 16, p);
      std::printf("  p=%-3d measured %8.0f words   bound %8.0f   ratio %.2f\n", p,
                  measured, bound, measured / bound);
    }
  }

  std::printf("\n=== Headline 3: fusion (Section 6.2) ===\n");
  std::printf("paper: virtual n x n intermediates are never materialized\n");
  {
    const auto g = graph::build_graph<float>(
        graph::generate_kronecker({.scale = 10, .edges = 10000, .seed = 5}));
    Rng rng(7);
    DenseMatrix<float> h(g.num_vertices(), 16);
    h.fill_uniform(rng, -1.0, 1.0);
    const auto time_of = [](auto&& fn) {
      const auto t0 = comm::thread_cpu_ns();
      fn();
      return static_cast<double>(comm::thread_cpu_ns() - t0) * 1e-6;
    };
    double fused_ms = 0, unfused_ms = 0;
    for (int rep = 0; rep < 5; ++rep) {
      fused_ms += time_of([&] { (void)psi_va(g.adj, h); });
      unfused_ms += time_of([&] { (void)reference::psi_va_unfused(g.adj, h); });
    }
    std::printf("  Psi_VA n=%lld: fused %.2f ms, unfused %.2f ms -> %.0fx\n",
                static_cast<long long>(g.num_vertices()), fused_ms / 5,
                unfused_ms / 5, unfused_ms / fused_ms);
  }
  return 0;
}
