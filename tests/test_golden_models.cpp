// Golden-value pinning for every model kind: forward outputs, training
// losses, and first-step weight gradients on a fixed tiny graph, committed
// as data (tests/golden/golden_values.txt). Any unintended numerical change
// anywhere in the stack — kernels, layers, loss, optimizer — shows up as a
// diff against these values.
//
// Regeneration (after an *intended* numerical change):
//     AGNN_REGEN_GOLDEN=1 ./test_golden_models
// rewrites the file in the source tree; commit the diff alongside the change
// that explains it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/engine_factory.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

constexpr const char* kGoldenFile = AGNN_GOLDEN_DIR "/golden_values.txt";

// The pinned workload: 8 nodes, 4 features, 4 classes, 2 layers, 3 SGD
// steps. Small enough that the file is reviewable, deep enough to exercise
// both layer kinds of every model (hidden tanh + identity output).
constexpr index_t kNodes = 8;
constexpr index_t kFeatures = 4;
constexpr int kSteps = 3;

GnnConfig golden_config(ModelKind kind) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = kFeatures;
  cfg.layer_widths = {kFeatures, kFeatures};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 2023;
  return cfg;
}

struct GoldenWorkload {
  CsrMatrix<double> adj;
  CsrMatrix<double> adj_t;
  DenseMatrix<double> x;
  std::vector<index_t> labels;
};

GoldenWorkload make_workload(ModelKind kind) {
  GoldenWorkload w;
  const auto g = testing::small_graph<double>(kNodes, 20, 97);
  w.adj = kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  w.adj_t = w.adj.transposed();
  w.x = testing::random_dense<double>(kNodes, kFeatures, 101);
  w.labels.resize(kNodes);
  Rng rng(103);
  for (auto& l : w.labels) {
    l = static_cast<index_t>(rng.next_bounded(kFeatures));
  }
  return w;
}

// Multi-head GAT on the golden workload: 3 concatenated hidden heads and 2
// averaged output heads, pinned under its own prefix from the per-head
// model this layer replaced. W is k_in x (heads k) with head h in columns
// [h k, (h+1) k), and a holds the blocks [a1_h; a2_h] in head order.
constexpr const char* kMultiHeadPrefix = "GAT_h3x2";

GnnConfig multihead_config() {
  GnnConfig cfg = golden_config(ModelKind::kGAT);
  cfg.heads = 3;
  cfg.out_heads = 2;
  return cfg;
}

// The pinned models of a kind: its golden model, and for GAT the
// multi-head one too.
std::vector<std::pair<std::string, GnnConfig>> golden_models(ModelKind kind) {
  std::vector<std::pair<std::string, GnnConfig>> models = {
      {to_string(kind), golden_config(kind)}};
  if (kind == ModelKind::kGAT) models.emplace_back(kMultiHeadPrefix, multihead_config());
  return models;
}

// One model's pinned quantities, keyed for the golden file.
std::map<std::string, std::vector<double>> compute_quantities(const GnnConfig& cfg) {
  const GoldenWorkload w = make_workload(cfg.kind);
  std::map<std::string, std::vector<double>> q;

  GnnModel<double> model(cfg);

  // Forward pass and first-step gradients (pre-update parameters).
  std::vector<LayerCache<double>> caches;
  const DenseMatrix<double> h = model.forward(w.adj, w.x, caches);
  q["forward"] = {h.flat().begin(), h.flat().end()};
  LossResult<double> loss;
  softmax_cross_entropy(h, std::span<const index_t>(w.labels), loss);
  const auto grads = model.backward(w.adj, w.adj_t, caches, loss.grad);
  q["grad_w0"] = {grads[0].d_w.flat().begin(), grads[0].d_w.flat().end()};
  if (!grads[0].d_a.empty()) q["grad_a0"] = grads[0].d_a;

  // Training losses and post-training layer-0 weights.
  Trainer<double> trainer(model, std::make_unique<SgdOptimizer<double>>(0.05));
  q["losses"] = trainer.train(w.adj, w.x, std::span<const index_t>(w.labels),
                              kSteps);
  const auto wf = model.layer(0).weights().flat();
  q["final_w0"] = {wf.begin(), wf.end()};
  return q;
}

using GoldenData = std::map<std::string, std::vector<double>>;

// Every pinned value of `prefix` within the golden tolerance: abs+rel, so
// it absorbs OpenMP reassociation across thread counts while still catching
// any real numerical change.
void expect_golden(const GoldenData& golden, const std::string& prefix,
                   const GoldenData& actual, const std::string& where) {
  for (const auto& [key, values] : actual) {
    const std::string full = prefix + "." + key;
    const auto it = golden.find(full);
    ASSERT_NE(it, golden.end()) << "golden file lacks " << full;
    ASSERT_EQ(it->second.size(), values.size()) << full;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double tol = 1e-9 * (1.0 + std::abs(it->second[i]));
      EXPECT_NEAR(values[i], it->second[i], tol) << full << "[" << i << "]" << where;
    }
  }
}

// File format: one record per line, whitespace-separated:
//     <kind>.<key> <count> <value>*      (values printed with %.17g)
GoldenData load_golden() {
  std::ifstream in(kGoldenFile);
  GoldenData data;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    std::size_t count = 0;
    ss >> key >> count;
    std::vector<double> values(count);
    for (double& v : values) ss >> v;
    EXPECT_FALSE(ss.fail()) << "golden file: bad record " << key;
    data[key] = std::move(values);
  }
  return data;
}

void regenerate() {
  std::ofstream out(kGoldenFile, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
  out << "# Pinned model outputs; regenerate with AGNN_REGEN_GOLDEN=1 "
         "./test_golden_models\n";
  const auto write = [&](const std::string& prefix, const GoldenData& q) {
    for (const auto& [key, values] : q) {
      out << prefix << '.' << key << ' ' << values.size();
      char buf[64];
      for (double v : values) {
        std::snprintf(buf, sizeof(buf), " %.17g", v);
        out << buf;
      }
      out << '\n';
    }
  };
  for (ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                         ModelKind::kGCN, ModelKind::kGIN}) {
    write(to_string(kind), compute_quantities(golden_config(kind)));
  }
  write(kMultiHeadPrefix, compute_quantities(multihead_config()));
  ASSERT_TRUE(out.good()) << "write failed: " << kGoldenFile;
}

class GoldenModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(GoldenModels, MatchesPinnedValues) {
  if (std::getenv("AGNN_REGEN_GOLDEN") != nullptr) {
    regenerate();
    GTEST_SKIP() << "regenerated " << kGoldenFile;
  }
  const ModelKind kind = GetParam();
  const GoldenData golden = load_golden();
  ASSERT_FALSE(golden.empty())
      << "missing " << kGoldenFile
      << " — run with AGNN_REGEN_GOLDEN=1 to create it";
  for (const auto& [prefix, cfg] : golden_models(kind)) {
    expect_golden(golden, prefix, compute_quantities(cfg), "");
  }
}

// Every kernel schedule must reproduce the same pinned goldens. The kernels
// have one schedule, the row-parallel loop; what varies between hosts is its
// OpenMP team size, so all five model kinds run at 1, 2 and 4 threads.
TEST_P(GoldenModels, AllPoliciesMatchPinnedValues) {
  if (std::getenv("AGNN_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration handled by MatchesPinnedValues";
  }
  const ModelKind kind = GetParam();
  const GoldenData golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "missing " << kGoldenFile;
  for (const int threads : {1, 2, 4}) {
    testing::ScopedThreads team(threads);
    const std::string where = " at " + std::to_string(threads) + " threads";
    for (const auto& [prefix, cfg] : golden_models(kind)) {
      expect_golden(golden, prefix, compute_quantities(cfg), where);
    }
  }
}

// Every distribution policy must land on the same pinned goldens — the
// values were NOT regenerated for the policy-family work, so this asserts
// the 1D/1.5D/2D/3D engines (including the pipelined SUMMA panel loop and
// the depth-replicated 3D gradients) stay on the pinned numerical
// trajectory for all five model kinds. Only the engine-observable keys are
// checked: forward outputs, training losses, and post-training weights.
TEST_P(GoldenModels, AllDistributionPoliciesMatchPinnedValues) {
  if (std::getenv("AGNN_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration handled by MatchesPinnedValues";
  }
  const ModelKind kind = GetParam();
  const GoldenData golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "missing " << kGoldenFile;
  const GoldenWorkload w = make_workload(kind);

  struct PolicyCase {
    dist::DistPolicy policy;
    int ranks;
    int depth_hint;
  };
  const PolicyCase cases[] = {{dist::DistPolicy::k1D, 2, 0},
                              {dist::DistPolicy::k1_5D, 4, 0},
                              {dist::DistPolicy::k2D, 4, 0},
                              {dist::DistPolicy::k3D, 8, 2}};
  for (const auto& [prefix, model_cfg] : golden_models(kind)) {
    const GnnConfig& cfg = model_cfg;  // captured by the rank lambda
    for (const PolicyCase& pc : cases) {
      std::map<std::string, std::vector<double>> q;
      comm::SpmdRuntime::run(pc.ranks, [&](comm::Communicator& world) {
        GnnModel<double> model(cfg);
        auto engine = dist::make_dist_engine(pc.policy, world, w.adj, model,
                                             pc.depth_hint);
        const auto h = engine->infer(w.x);
        SgdOptimizer<double> opt(0.05);
        std::vector<double> losses;
        for (int s = 0; s < kSteps; ++s) {
          losses.push_back(
              engine->train_step(w.x, std::span<const index_t>(w.labels), opt)
                  .loss);
        }
        if (world.rank() == 0) {
          q["forward"] = {h.flat().begin(), h.flat().end()};
          q["losses"] = losses;
          const auto wf = model.layer(0).weights().flat();
          q["final_w0"] = {wf.begin(), wf.end()};
        }
      });
      // Same tolerance as the primary golden check: distributed partial
      // sums reassociate within it.
      expect_golden(golden, prefix, q,
                    std::string(" under AGNN_DIST=") + dist::to_string(pc.policy) +
                        " p=" + std::to_string(pc.ranks));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GoldenModels,
                         ::testing::Values(ModelKind::kVA, ModelKind::kAGNN,
                                           ModelKind::kGAT, ModelKind::kGCN,
                                           ModelKind::kGIN),
                         [](const ::testing::TestParamInfo<ModelKind>& tpi) {
                           return std::string(to_string(tpi.param));
                         });

}  // namespace
}  // namespace agnn
