// Section 7 — communication-volume verification benchmarks.
//
// (a) Measured max-per-rank volume of one global-formulation training step
//     against the closed-form bound c * (n*k/sqrt(p) + k^2) words per layer,
//     sweeping p; the measured/bound ratio must stay a small constant.
// (b) Global vs local volume ratio as a function of density — the
//     Erdős–Rényi crossover of Section 7.3.
// (c) The Section 8.2 communication-overhead datapoint: GAT at 1% density,
//     modeled communication time as p grows (paper: 0.41 s at 32 nodes to
//     1.13 s at 512 — sublinear growth in p at fixed per-rank work).
// (d) The distribution-policy family crossover (Section 6.3 generalized):
//     measured max-per-rank forward volume of every family member
//     (1D/1.5D/2D/3D) against the exact per-rank protocol replay and the
//     closed-form asymptotic bound, across square AND awkward rank counts.
#include <cmath>

#include "bench_common.hpp"
#include "dist/engine_factory.hpp"
#include "dist/volume_model.hpp"

namespace agnn::bench {
namespace {

void VolumeVsBound(benchmark::State& state) {
  const auto kind = static_cast<ModelKind>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  const index_t n = 1024, k = 16;
  const int layers = 3;
  static const graph::Graph<real_t>& g = *new graph::Graph<real_t>(
      uniform_graph(n, 0.01, 21));

  Workload w;
  w.adj = &g.adj;
  w.k = k;
  w.layers = layers;
  w.training = true;
  for (auto _ : state) {
    const auto r = run_global(w, kind, ranks);
    report(state, r);
    const double q = std::sqrt(static_cast<double>(ranks));
    const double bound_words =
        static_cast<double>(layers) *
        (static_cast<double>(n * k) / q + static_cast<double>(k * k));
    const double measured_words = r.comm_mbytes * 1e6 / sizeof(real_t);
    state.counters["bound_kwords"] = bound_words / 1e3;
    state.counters["measured_kwords"] = measured_words / 1e3;
    state.counters["measured_over_bound"] =
        ranks == 1 ? 0.0 : measured_words / bound_words;
  }
  state.SetLabel(std::string("train/") + to_string(kind));
}

void GlobalVsLocalByDensity(benchmark::State& state) {
  // The crossover needs d in omega(sqrt(p)) to favor the global view
  // (Section 7.3); with the scheme's ~4 block moves per layer that means a
  // large grid: p = 100. The density sweep should straddle the crossover.
  const double density = 1.0 / static_cast<double>(state.range(0));
  const int ranks = 100;
  const index_t n = 2048, k = 16;
  const auto g = uniform_graph(n, density, 23);

  Workload w;
  w.adj = &g.adj;
  w.k = k;
  w.layers = 3;
  w.training = false;
  for (auto _ : state) {
    const auto rg = run_global(w, ModelKind::kGAT, ranks);
    const auto rl = run_local(w, ModelKind::kGAT, ranks);
    state.SetIterationTime(rg.modeled_seconds);
    state.counters["global_MB"] = rg.comm_mbytes;
    state.counters["local_MB"] = rl.comm_mbytes;
    // Section 7.3: this ratio should shrink toward 1 as density decreases.
    state.counters["local_over_global"] =
        rg.comm_mbytes > 0 ? rl.comm_mbytes / rg.comm_mbytes : 0.0;
  }
  state.counters["m"] = static_cast<double>(g.num_edges());
}

// Section 6.3 design-choice ablation: the A-stationary 1.5D scheme vs a
// naive 1D distribution of the same global formulation. Identical math,
// Theta(n k) vs O(n k / sqrt(p)) movement.
void Scheme1dVs15d(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const index_t n = 1024, k = 16;
  static const graph::Graph<real_t>& g = *new graph::Graph<real_t>(
      uniform_graph(n, 0.01, 41));
  Rng rng(11);
  DenseMatrix<real_t> x(n, k);
  x.fill_uniform(rng, -1.0, 1.0);

  for (auto _ : state) {
    const auto stats_15d =
        comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
          GnnModel<real_t> model(model_config(ModelKind::kGAT, k, 3));
          dist::DistEngine<real_t> engine(world, g.adj, model,
                                          dist::DistPolicy::k1_5D);
          comm::reset_all_stats(world);
          engine.forward(x, nullptr);
        });
    const auto stats_1d =
        comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
          GnnModel<real_t> model(model_config(ModelKind::kGAT, k, 3));
          dist::DistEngine<real_t> engine(world, g.adj, model,
                                          dist::DistPolicy::k1D);
          comm::reset_all_stats(world);
          engine.forward(x, nullptr);
        });
    const auto r = summarize(stats_15d);
    state.SetIterationTime(r.modeled_seconds);
    state.counters["vol_15d_MB"] =
        static_cast<double>(comm::max_bytes_sent(stats_15d)) / 1e6;
    state.counters["vol_1d_MB"] =
        static_cast<double>(comm::max_bytes_sent(stats_1d)) / 1e6;
    state.counters["ratio_1d_over_15d"] =
        static_cast<double>(comm::max_bytes_sent(stats_1d)) /
        static_cast<double>(std::max<std::uint64_t>(1, comm::max_bytes_sent(stats_15d)));
  }
  state.SetLabel("GAT inference");
}

// One forward pass of each family member, measured against the exact
// per-rank replay (byte-exact for 1D/2D/3D and for 1.5D when sqrt(p)
// divides n) and the closed-form asymptotic bound. The per-p rows across
// policies form the family crossover table pinned in results/.
void PolicyFamilyVolume(benchmark::State& state) {
  const auto policy = static_cast<dist::DistPolicy>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  const index_t n = 1024, k = 16;
  const int layers = 3;
  const ModelKind kind = ModelKind::kVA;
  static const graph::Graph<real_t>& g = *new graph::Graph<real_t>(
      uniform_graph(n, 0.01, 21));
  Rng rng(11);
  DenseMatrix<real_t> x(n, k);
  x.fill_uniform(rng, -1.0, 1.0);

  for (auto _ : state) {
    const auto stats =
        comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
          GnnModel<real_t> model(model_config(kind, k, layers));
          dist::DistEngine<real_t> engine(world, g.adj, model, policy);
          comm::reset_all_stats(world);
          engine.forward(x, nullptr);
        });
    const auto r = summarize(stats);
    state.SetIterationTime(std::max(1e-9, r.modeled_seconds));
    const double measured_words =
        static_cast<double>(comm::max_bytes_sent(stats)) / sizeof(real_t);
    const double exact_words =
        layers * dist::predicted_policy_forward_words(policy, kind, n, k, ranks);
    const double bound_words =
        layers * dist::policy_bound_words(policy, n, k, ranks);
    state.counters["measured_kwords"] = measured_words / 1e3;
    state.counters["exact_kwords"] = exact_words / 1e3;
    state.counters["bound_kwords"] = bound_words / 1e3;
    state.counters["measured_over_bound"] =
        ranks == 1 ? 0.0 : measured_words / bound_words;
    state.counters["measured_over_exact"] =
        exact_words > 0 ? measured_words / exact_words : 0.0;
  }
  state.SetLabel(std::string("fwd/VA/") + dist::to_string(policy));
}

void GatCommOverheadVsRanks(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const index_t k = 16;
  static const graph::Graph<real_t>& g = *new graph::Graph<real_t>(
      kronecker_graph(10, 0.01, 31));  // 1% density, the Section 8.2 datapoint

  Workload w;
  w.adj = &g.adj;
  w.k = k;
  w.layers = 3;
  w.training = true;
  for (auto _ : state) {
    const auto r = run_global(w, ModelKind::kGAT, ranks);
    report(state, r);
  }
  state.counters["p"] = ranks;
  state.SetLabel("GAT/rho=1%");
}

void register_all() {
  for (const auto kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT}) {
    for (const int p : {1, 4, 16, 64}) {
      benchmark::RegisterBenchmark(
          (std::string("Sec7_VolumeVsBound/") +
           agnn::to_string(kind) + "/p" + std::to_string(p))
              .c_str(),
          VolumeVsBound)
          ->Args({static_cast<long>(kind), p})
          ->UseManualTime()
          ->Iterations(1);
    }
  }
  for (const int inv_density : {20, 100, 1000, 10000}) {
    benchmark::RegisterBenchmark(
        (std::string("Sec7_GlobalVsLocal/rho_inv") + std::to_string(inv_density))
            .c_str(),
        GlobalVsLocalByDensity)
        ->Args({inv_density})
        ->UseManualTime()
        ->Iterations(1);
  }
  for (const int p : {4, 16, 64}) {
    benchmark::RegisterBenchmark(
        (std::string("Sec8_GatCommOverhead/p") + std::to_string(p)).c_str(),
        GatCommOverheadVsRanks)
        ->Args({p})
        ->UseManualTime()
        ->Iterations(1);
  }
  for (const int p : {4, 16, 64}) {
    benchmark::RegisterBenchmark(
        (std::string("Sec6_Scheme1dVs15d/p") + std::to_string(p)).c_str(),
        Scheme1dVs15d)
        ->Args({p})
        ->UseManualTime()
        ->Iterations(1);
  }
  // The family crossover table: square counts cover all four members;
  // the awkward counts (6, 8, 12) exercise the members that accept any p.
  for (const auto policy :
       {dist::DistPolicy::k1D, dist::DistPolicy::k1_5D, dist::DistPolicy::k2D,
        dist::DistPolicy::k3D}) {
    for (const int p : {4, 6, 8, 12, 16, 64}) {
      if (!dist::policy_accepts(policy, p)) continue;
      benchmark::RegisterBenchmark(
          (std::string("Sec6_PolicyFamily/") + dist::to_string(policy) + "/p" +
           std::to_string(p))
              .c_str(),
          PolicyFamilyVolume)
          ->Args({static_cast<long>(policy), p})
          ->UseManualTime()
          ->Iterations(1);
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace agnn::bench

AGNN_BENCH_MAIN()
