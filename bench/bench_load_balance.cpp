// Load-balance study: the effect of vertex ordering on the 2D-blocked
// distributed execution of heavy-tail (Kronecker) graphs.
//
// The paper's evaluation deliberately uses Kronecker graphs because they
// "ensure high load imbalance" (Section 8.1): in the natural order the hubs
// concentrate in the low-id block rows, so grid block (0,0) carries a
// disproportionate share of the non-zeros and its rank becomes the critical
// path. A random vertex shuffle rebalances the blocks; degree-descending
// order is the adversarial worst case. This benchmark quantifies all three
// on the same graph, reporting the block-imbalance factor (max/mean block
// nnz) and the modeled step time of distributed GAT training.
#include "bench_common.hpp"
#include "graph/reorder.hpp"

namespace agnn::bench {
namespace {

enum class Ordering { kNatural, kShuffled, kDegreeDescending };

const char* to_string(Ordering o) {
  switch (o) {
    case Ordering::kNatural: return "natural";
    case Ordering::kShuffled: return "shuffled";
    case Ordering::kDegreeDescending: return "degree_desc";
  }
  return "?";
}

const CsrMatrix<real_t>& ordered_graph(Ordering ordering) {
  static const graph::Graph<real_t> base = kronecker_graph(12, 0.005, 77);
  static const CsrMatrix<real_t> natural = base.adj;
  static const CsrMatrix<real_t> shuffled = graph::permute_graph(
      base.adj, graph::random_permutation(base.num_vertices(), 13));
  static const CsrMatrix<real_t> degree_desc = graph::permute_graph(
      base.adj, graph::degree_descending_permutation(base.adj));
  switch (ordering) {
    case Ordering::kNatural: return natural;
    case Ordering::kShuffled: return shuffled;
    case Ordering::kDegreeDescending: return degree_desc;
  }
  return natural;
}

void LoadBalance(benchmark::State& state) {
  const auto ordering = static_cast<Ordering>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  const auto& adj = ordered_graph(ordering);

  Workload w;
  w.adj = &adj;
  w.k = 16;
  w.layers = 3;
  w.training = true;
  for (auto _ : state) {
    report(state, run_global(w, ModelKind::kGAT, ranks));
  }
  const int side = static_cast<int>(std::round(std::sqrt(ranks)));
  state.counters["block_imbalance"] = graph::block_imbalance(adj, side);
  state.counters["p"] = ranks;
  state.SetLabel(to_string(ordering));
}

void register_all() {
  for (const auto ordering : {Ordering::kNatural, Ordering::kShuffled,
                              Ordering::kDegreeDescending}) {
    for (const int p : {4, 16, 64}) {
      benchmark::RegisterBenchmark(
          (std::string("LoadBalance/") + to_string(ordering) + "/p" +
           std::to_string(p))
              .c_str(),
          LoadBalance)
          ->Args({static_cast<long>(ordering), p})
          ->UseManualTime()
          ->Iterations(1);
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace agnn::bench

AGNN_BENCH_MAIN()
