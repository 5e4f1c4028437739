// Node classification on a planted-partition graph: the canonical GNN
// workload the paper's models are trained for. Compares the model kinds
// (GCN / GIN / VA / AGNN / GAT, and GAT with attention heads) on the same
// task with a train/test split and prints a small leaderboard.
//
//   ./build/examples/node_classification
#include <cstdio>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "graph/sbm.hpp"

namespace {

using namespace agnn;

struct Task {
  CsrMatrix<float> adj;
  DenseMatrix<float> x;
  std::vector<index_t> labels;
  std::vector<std::uint8_t> train_mask, test_mask;
  index_t classes = 0;
};

// A 4-community stochastic block model with weakly-informative features:
// intra-community edge probability 0.12, inter 0.01.
Task make_task(index_t n, index_t classes, std::uint64_t seed) {
  const auto sbm = graph::generate_sbm(
      {.n = n, .communities = classes, .p_in = 0.12, .p_out = 0.01, .seed = seed});
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  Task task;
  task.adj = graph::build_graph<float>(sbm.edges, opt).adj;
  task.classes = classes;
  task.labels = sbm.labels;
  task.x = DenseMatrix<float>(n, 8);
  task.train_mask.resize(static_cast<std::size_t>(n));
  task.test_mask.resize(static_cast<std::size_t>(n));
  Rng rng(seed + 1);
  for (index_t i = 0; i < n; ++i) {
    const index_t c = task.labels[static_cast<std::size_t>(i)];
    for (index_t f = 0; f < 8; ++f) {
      const double signal = (f % classes == c) ? 0.6 : -0.2;
      task.x(i, f) = static_cast<float>(signal + rng.next_uniform(-1.0, 1.0));
    }
    const bool train = rng.next_double() < 0.6;
    task.train_mask[static_cast<std::size_t>(i)] = train;
    task.test_mask[static_cast<std::size_t>(i)] = !train;
  }
  return task;
}

}  // namespace

int main() {
  const auto task = make_task(200, 4, 2026);
  std::printf("planted-partition task: n=%lld, m=%lld, 4 classes\n",
              static_cast<long long>(task.adj.rows()),
              static_cast<long long>(task.adj.nnz()));
  std::printf("%-6s %12s %12s %12s\n", "model", "final loss", "train acc", "test acc");

  // The five kinds, then GAT with 3 concatenated hidden heads and 2
  // averaged output heads (per-head widths 6 and 4).
  struct Row {
    const char* name;
    ModelKind kind;
    index_t hidden;
    int heads, out_heads;
  };
  for (const Row row : {Row{"GCN", ModelKind::kGCN, 16, 1, 1},
                        Row{"GIN", ModelKind::kGIN, 16, 1, 1},
                        Row{"VA", ModelKind::kVA, 16, 1, 1},
                        Row{"AGNN", ModelKind::kAGNN, 16, 1, 1},
                        Row{"GAT", ModelKind::kGAT, 16, 1, 1},
                        Row{"GATx3", ModelKind::kGAT, 6, 3, 2}}) {
    const CsrMatrix<float> adj =
        row.kind == ModelKind::kGCN ? graph::sym_normalize(task.adj) : task.adj;
    GnnConfig cfg;
    cfg.kind = row.kind;
    cfg.in_features = 8;
    cfg.layer_widths = {row.hidden, 4};
    cfg.heads = row.heads;
    cfg.out_heads = row.out_heads;
    cfg.hidden_activation = Activation::kTanh;
    cfg.mlp_activation = Activation::kTanh;
    cfg.seed = 7;
    GnnModel<float> model(cfg);
    Trainer<float> trainer(model, std::make_unique<AdamOptimizer<float>>(0.01f));
    const auto losses =
        trainer.train(adj, task.x, task.labels, 200, task.train_mask);
    const auto h = model.infer(adj, task.x);
    std::printf("%-6s %12.4f %11.1f%% %11.1f%%\n", row.name,
                static_cast<double>(losses.back()),
                100.0 * accuracy<float>(h, task.labels, task.train_mask),
                100.0 * accuracy<float>(h, task.labels, task.test_mask));
  }
  return 0;
}
