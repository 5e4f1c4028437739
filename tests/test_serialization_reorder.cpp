// Tests for model checkpointing, vertex reordering, and feature dropout.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gradcheck.hpp"
#include "dist/process_grid.hpp"
#include "core/model.hpp"
#include "core/serialization.hpp"
#include "graph/kronecker.hpp"
#include "graph/sbm.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

class SerializationSweep : public ::testing::TestWithParam<ModelKind> {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_P(SerializationSweep, RoundTripPreservesModelExactly) {
  path_ = ::testing::TempDir() + "agnn_model_" + to_string(GetParam()) + ".bin";
  GnnConfig cfg;
  cfg.kind = GetParam();
  cfg.in_features = 6;
  cfg.layer_widths = {8, 5, 3};
  cfg.hidden_activation = Activation::kTanh;
  cfg.attention_slope = 0.15;
  cfg.gin_epsilon = 0.25;
  cfg.seed = 77;
  GnnModel<double> model(cfg);
  // Perturb the weights so we are not just testing seeded construction.
  Rng rng(5);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    model.layer(l).weights().fill_uniform(rng, -2.0, 2.0);
  }
  save_model(path_, model);
  GnnModel<double> loaded = load_model<double>(path_);

  ASSERT_EQ(loaded.num_layers(), model.num_layers());
  EXPECT_EQ(loaded.config().kind, cfg.kind);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_EQ(loaded.layer(l).weights(), model.layer(l).weights()) << l;
    EXPECT_EQ(loaded.layer(l).attention_params(), model.layer(l).attention_params());
    EXPECT_EQ(loaded.layer(l).weights2(), model.layer(l).weights2());
  }
  // The loaded model must produce bit-identical inference.
  const auto g = testing::small_graph<double>(20, 80, 9);
  const CsrMatrix<double> adj =
      cfg.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto x = testing::random_dense<double>(20, 6, 11);
  EXPECT_EQ(model.infer(adj, x), loaded.infer(adj, x));
}

INSTANTIATE_TEST_SUITE_P(Models, SerializationSweep,
                         ::testing::Values(ModelKind::kGCN, ModelKind::kVA,
                                           ModelKind::kAGNN, ModelKind::kGAT,
                                           ModelKind::kGIN),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(Serialization, CorruptFileRejected) {
  const std::string path = ::testing::TempDir() + "agnn_model_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "THIS IS NOT A MODEL FILE";
  }
  EXPECT_THROW(load_model<double>(path), std::logic_error);
  std::filesystem::remove(path);
  EXPECT_THROW(load_model<double>("/no/such/model.bin"), std::logic_error);
}

// Counts past vector::max_size() are checked against the bytes left in the
// file and rejected as truncated before anything is allocated from them.
void expect_truncated_error(const std::function<void()>& load) {
  try {
    load();
    FAIL() << "expected the truncated-file error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("model file truncated"),
              std::string::npos)
        << e.what();
  }
}

GnnConfig one_unit_config() {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = 3;
  cfg.layer_widths = {1};
  return cfg;
}

const std::int64_t kPastMaxSize =
    static_cast<std::int64_t>(std::vector<double>().max_size()) + 1;

TEST(Serialization, HugeFeatureCountIsRejectedBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "agnn_model_huge.bin";
  save_model(path, GnnModel<double>(one_unit_config()));
  // magic, kind, then in_features: the first layer's W is in_features x 1.
  testing::patch_i64(path, 16, kPastMaxSize);
  expect_truncated_error([&] { load_model<double>(path); });
  std::filesystem::remove(path);
}

TEST(Serialization, HugeOptimizerStateIsRejectedBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "agnn_ckpt_huge.bin";
  GnnModel<double> model(one_unit_config());
  const std::vector<double> state = {1.0, 2.0};
  save_checkpoint(path, model, 3, std::span<const double>(state));
  testing::patch_i64(path, 16, kPastMaxSize);  // magic, epoch, then the count
  expect_truncated_error([&] { load_checkpoint(path, model); });
  std::filesystem::remove(path);
}

// GAT with attention heads: the AGNNMDL2 header carries both head counts.
GnnConfig heads_config() {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 6;
  cfg.layer_widths = {4, 3};
  cfg.heads = 3;
  cfg.out_heads = 2;
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 31;
  return cfg;
}

TEST(Serialization, MultiHeadRoundTripIsBitExact) {
  const std::string path = ::testing::TempDir() + "agnn_model_heads.bin";
  GnnModel<double> model(heads_config());
  Rng rng(5);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    model.layer(l).weights().fill_uniform(rng, -2.0, 2.0);
    for (double& v : model.layer(l).attention_params()) v = rng.next_uniform(-1.0, 1.0);
  }
  save_model(path, model);
  const GnnModel<double> loaded = load_model<double>(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.config().heads, 3);
  EXPECT_EQ(loaded.config().out_heads, 2);
  ASSERT_EQ(loaded.num_layers(), model.num_layers());
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_EQ(loaded.layer(l).heads(), model.layer(l).heads());
    EXPECT_EQ(loaded.layer(l).weights(), model.layer(l).weights()) << l;
    EXPECT_EQ(loaded.layer(l).attention_params(), model.layer(l).attention_params());
  }
  const auto g = testing::small_graph<double>(20, 80, 9);
  const auto x = testing::random_dense<double>(20, 6, 11);
  EXPECT_EQ(model.infer(g.adj, x), loaded.infer(g.adj, x));
}

// An AGNNMDL1 file, written here byte by byte, has no head counts and
// loads as one head.
TEST(Serialization, VersionOneFileLoadsAsOneHead) {
  const std::string path = ::testing::TempDir() + "agnn_model_v1.bin";
  const std::vector<double> w = {0.5, -0.25, 1.0, 0.75, -1.5, 0.125};  // 3 x 2
  const std::vector<double> a = {0.1, -0.2, 0.3, -0.4};
  {
    std::ofstream out(path, std::ios::binary);
    const auto i64 = [&](std::int64_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    const auto f64 = [&](double v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
    out.write("AGNNMDL1", 8);
    i64(static_cast<std::int64_t>(ModelKind::kGAT));
    i64(3);  // in_features
    i64(1);  // layers
    i64(static_cast<std::int64_t>(Activation::kTanh));
    i64(static_cast<std::int64_t>(Activation::kIdentity));
    i64(static_cast<std::int64_t>(Activation::kRelu));
    f64(0.2);  // attention slope
    f64(0.0);  // gin epsilon
    i64(2);    // layer width
    i64(static_cast<std::int64_t>(w.size()));
    for (const double v : w) f64(v);
    i64(static_cast<std::int64_t>(a.size()));
    for (const double v : a) f64(v);
    i64(0);  // no W2
  }
  const GnnModel<double> model = load_model<double>(path);
  std::filesystem::remove(path);
  EXPECT_EQ(model.config().heads, 1);
  EXPECT_EQ(model.config().out_heads, 1);
  ASSERT_EQ(model.num_layers(), 1u);
  EXPECT_EQ(model.layer(0).heads(), 1);
  EXPECT_EQ(model.layer(0).out_features(), 2);
  EXPECT_EQ(model.layer(0).weights(), DenseMatrix<double>(3, 2, w));
  EXPECT_EQ(model.layer(0).attention_params(), a);
}

TEST(Serialization, ForgedHeadCountIsRejectedBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "agnn_model_heads_huge.bin";
  save_model(path, GnnModel<double>(heads_config()));
  // magic, kind, in_features, layers, three activations, slope, epsilon,
  // then the hidden layers' head count.
  testing::patch_i64(path, 72, kPastMaxSize);
  expect_truncated_error([&] { load_model<double>(path); });
  std::filesystem::remove(path);
}

// ---- reordering --------------------------------------------------------------

TEST(Reorder, PermutationValidation) {
  EXPECT_NO_THROW(graph::validate_permutation({2, 0, 1}, 3));
  EXPECT_THROW(graph::validate_permutation({0, 0, 1}, 3), std::logic_error);
  EXPECT_THROW(graph::validate_permutation({0, 1, 3}, 3), std::logic_error);
  EXPECT_THROW(graph::validate_permutation({0, 1}, 3), std::logic_error);
}

TEST(Reorder, RandomPermutationIsBijective) {
  const auto perm = graph::random_permutation(100, 7);
  EXPECT_NO_THROW(graph::validate_permutation(perm, 100));
  EXPECT_NE(perm, graph::identity_permutation(100));
}

TEST(Reorder, PermuteGraphPreservesStructure) {
  const auto g = testing::small_graph<double>(30, 120, 13);
  const auto perm = graph::random_permutation(30, 17);
  const auto pg = graph::permute_graph(g.adj, perm);
  EXPECT_EQ(pg.nnz(), g.adj.nnz());
  // Edge (u, v) in A <=> (perm[u], perm[v]) in B, with the same value.
  const auto da = g.adj.to_dense();
  const auto db = pg.to_dense();
  for (index_t u = 0; u < 30; ++u) {
    for (index_t v = 0; v < 30; ++v) {
      EXPECT_DOUBLE_EQ(db(perm[static_cast<std::size_t>(u)],
                          perm[static_cast<std::size_t>(v)]),
                       da(u, v));
    }
  }
}

TEST(Reorder, DegreeDescendingPutsHubsFirst) {
  const auto g = testing::small_graph<double>(50, 300, 19);
  const auto perm = graph::degree_descending_permutation(g.adj);
  const auto pg = graph::permute_graph(g.adj, perm);
  for (index_t v = 1; v < 50; ++v) {
    EXPECT_GE(pg.row_nnz(v - 1), pg.row_nnz(v)) << "at " << v;
  }
}

TEST(Reorder, GnnIsEquivariantUnderVertexRelabeling) {
  // The key correctness property: infer(P A P^T, P X) == P infer(A, X).
  const auto g = testing::small_graph<double>(24, 100, 23);
  const auto x = testing::random_dense<double>(24, 5, 29);
  const auto perm = graph::random_permutation(24, 31);
  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                               ModelKind::kGIN}) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = 5;
    cfg.layer_widths = {5, 5};
    cfg.seed = 3;
    GnnModel<double> model(cfg);
    const auto h = model.infer(g.adj, x);
    const auto hp = model.infer(graph::permute_graph(g.adj, perm),
                                graph::permute_rows(x, perm));
    testing::expect_matrix_near(graph::permute_rows(h, perm), hp, 1e-8,
                                to_string(kind));
  }
}

TEST(Reorder, ShuffleReducesKroneckerBlockImbalance) {
  const auto el = graph::generate_kronecker({.scale = 11, .edges = 40000, .seed = 5});
  const auto g = graph::build_graph<double>(el);
  const double natural = graph::block_imbalance(g.adj, 4);
  const auto perm = graph::random_permutation(g.num_vertices(), 37);
  const double shuffled =
      graph::block_imbalance(graph::permute_graph(g.adj, perm), 4);
  // Kronecker natural order concentrates hubs in block (0,0); a random
  // shuffle must clearly improve the max/mean block load.
  EXPECT_GT(natural, 1.5 * shuffled);
  EXPECT_LT(shuffled, 1.5);
}

TEST(Reorder, PermuteVectorRoundTrip) {
  const std::vector<int> v{10, 20, 30, 40};
  const graph::Permutation perm{2, 0, 3, 1};
  const auto pv = graph::permute_vector(v, perm);
  EXPECT_EQ(pv, (std::vector<int>{20, 40, 10, 30}));
}

TEST(Reorder, OutParamPermuteMatchesByValueForms) {
  const auto x = testing::random_dense<double>(17, 3, 61);
  const auto perm = graph::random_permutation(17, 67);
  DenseMatrix<double> out;
  graph::permute_rows(x, perm, out);
  EXPECT_EQ(out, graph::permute_rows(x, perm));
  std::vector<double> v(17);
  Rng rng(71);
  for (auto& e : v) e = rng.next_uniform(-1, 1);
  std::vector<double> vout;
  graph::permute_vector(v, perm, vout);
  EXPECT_EQ(vout, graph::permute_vector(v, perm));
}

// ---- RCM ---------------------------------------------------------------------

// Bandwidth of the permuted matrix: max |perm[i] - perm[j]| over edges. RCM's
// whole purpose is to make this small on near-symmetric adjacencies.
index_t permuted_bandwidth(const CsrMatrix<double>& adj,
                           const graph::Permutation& perm) {
  index_t bw = 0;
  for (index_t i = 0; i < adj.rows(); ++i) {
    for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
      bw = std::max(bw, std::abs(perm[static_cast<std::size_t>(i)] -
                                 perm[static_cast<std::size_t>(adj.col_at(e))]));
    }
  }
  return bw;
}

TEST(Reorder, RcmIsBijectiveAndDeterministic) {
  const auto g = testing::small_graph<double>(80, 300, 73);
  const auto perm = graph::rcm_permutation(g.adj);
  EXPECT_NO_THROW(graph::validate_permutation(perm, 80));
  EXPECT_EQ(graph::rcm_permutation(g.adj), perm)
      << "RCM must be deterministic — ties break on vertex id";
}

TEST(Reorder, RcmRecoversChainBandwidth) {
  // A chain has natural bandwidth 1; scramble it, then RCM must bring the
  // bandwidth back to a small constant while the scramble leaves it O(n).
  CooMatrix<double> coo;
  const index_t n = 120;
  coo.n_rows = coo.n_cols = n;
  for (index_t i = 0; i + 1 < n; ++i) {
    coo.push_back(i, i + 1, 1.0);
    coo.push_back(i + 1, i, 1.0);
  }
  const auto chain = CsrMatrix<double>::from_coo(coo);
  const auto scramble = graph::random_permutation(n, 79);
  const auto scrambled = graph::permute_graph(chain, scramble);
  const auto rcm = graph::rcm_permutation(scrambled);
  EXPECT_LE(permuted_bandwidth(scrambled, rcm), 2);
  EXPECT_GT(permuted_bandwidth(scrambled, graph::identity_permutation(n)), 10);
}

TEST(Reorder, RcmCoversDisconnectedComponentsAndIsolatedVertices) {
  // Two components plus fully isolated vertices (empty rows): every vertex
  // must still receive exactly one new id.
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 40;
  for (index_t i = 0; i + 1 < 15; ++i) {
    coo.push_back(i, i + 1, 1.0);
    coo.push_back(i + 1, i, 1.0);
  }
  for (index_t i = 20; i + 1 < 30; ++i) {
    coo.push_back(i, i + 1, 1.0);
    coo.push_back(i + 1, i, 1.0);
  }
  const auto a = CsrMatrix<double>::from_coo(coo);
  const auto perm = graph::rcm_permutation(a);
  EXPECT_NO_THROW(graph::validate_permutation(perm, 40));
}

TEST(Reorder, RcmImprovesKroneckerBlockLocality) {
  // On a skewed Kronecker graph RCM is a locality ordering, not a balance
  // ordering — but it must stay a valid bijection through the full pipeline
  // and keep the permuted graph's bandwidth below the natural order's.
  const auto el = graph::generate_kronecker({.scale = 9, .edges = 8000, .seed = 83});
  const auto g = graph::build_graph<double>(el);
  const auto perm = graph::rcm_permutation(g.adj);
  EXPECT_NO_THROW(graph::validate_permutation(perm, g.num_vertices()));
  EXPECT_LT(permuted_bandwidth(g.adj, perm),
            permuted_bandwidth(g.adj, graph::identity_permutation(g.num_vertices())));
}

// ---- block_imbalance against the real partition ------------------------------
// block_imbalance must use the same partition as the 2D process grids
// (dist::block_range); a hand-rolled `n / grid_side` reimplementation
// diverges on non-divisible n and breaks outright when grid_side > n.

double brute_force_imbalance(const CsrMatrix<double>& adj, int grid_side) {
  const index_t n = adj.rows();
  std::vector<double> nnz(static_cast<std::size_t>(grid_side * grid_side), 0);
  for (index_t bi = 0; bi < grid_side; ++bi) {
    const auto rr = dist::block_range(n, grid_side, bi);
    for (index_t bj = 0; bj < grid_side; ++bj) {
      const auto cr = dist::block_range(n, grid_side, bj);
      for (index_t i = rr.begin; i < rr.end; ++i) {
        for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
          const index_t j = adj.col_at(e);
          if (j >= cr.begin && j < cr.end) {
            nnz[static_cast<std::size_t>(bi * grid_side + bj)] += 1;
          }
        }
      }
    }
  }
  double mx = 0, total = 0;
  for (const double b : nnz) {
    mx = std::max(mx, b);
    total += b;
  }
  const double mean = total / static_cast<double>(nnz.size());
  return mean > 0 ? mx / mean : 0.0;
}

TEST(Reorder, BlockImbalanceMatchesBlockRangePartition) {
  // Non-divisible n across several grid sides, including grid_side > n where
  // the trailing blocks are empty.
  const auto g = testing::small_graph<double>(23, 90, 89);
  for (const int grid_side : {1, 2, 3, 4, 5, 7, 23, 31}) {
    EXPECT_DOUBLE_EQ(graph::block_imbalance(g.adj, grid_side),
                     brute_force_imbalance(g.adj, grid_side))
        << "grid_side=" << grid_side;
  }
}

// ---- dropout -----------------------------------------------------------------

TEST(Dropout, ZeroRateMatchesPlainForward) {
  const auto g = testing::small_graph<double>(16, 60, 41);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {4};
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(16, 4, 43);
  std::vector<LayerCache<double>> c1, c2;
  const auto h1 = model.forward(g.adj, x, c1);
  const auto h2 = model.forward(g.adj, x, c2, 0.0, 9);
  EXPECT_EQ(h1, h2);
  EXPECT_TRUE(c2[0].dropout_mask.empty());
}

TEST(Dropout, MaskIsDeterministicPerSeedAndUnbiased) {
  const auto g = testing::small_graph<double>(64, 300, 47);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 16;
  cfg.layer_widths = {16};
  GnnModel<double> model(cfg);
  const auto x = testing::random_dense<double>(64, 16, 49);
  std::vector<LayerCache<double>> c1, c2, c3;
  const auto h1 = model.forward(g.adj, x, c1, 0.4, 123);
  const auto h2 = model.forward(g.adj, x, c2, 0.4, 123);
  const auto h3 = model.forward(g.adj, x, c3, 0.4, 124);
  EXPECT_EQ(h1, h2);  // same seed -> same masks
  EXPECT_FALSE(h1 == h3);
  // Inverted dropout: mask values are 0 or 1/(1-q), mean ~ 1.
  double sum = 0;
  index_t zeros = 0;
  const auto& mask = c1[0].dropout_mask;
  for (index_t i = 0; i < mask.size(); ++i) {
    sum += mask.data()[i];
    if (mask.data()[i] == 0.0) ++zeros;
  }
  EXPECT_NEAR(sum / static_cast<double>(mask.size()), 1.0, 0.1);
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(mask.size()), 0.4,
              0.1);
}

TEST(Dropout, GradientsMatchFiniteDifferencesWithFixedMask) {
  const index_t n = 12, k = 4;
  const auto g = testing::small_graph<double>(n, 50, 53);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 8;
  GnnModel<double> model(cfg);
  auto x = testing::random_dense<double>(n, k, 55);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % k;
  const double rate = 0.3;
  const std::uint64_t seed = 99;  // fixed mask -> deterministic loss

  const auto loss_fn = [&]() {
    std::vector<LayerCache<double>> caches;
    const auto h = model.forward(g.adj, x, caches, rate, seed);
    return static_cast<double>(softmax_cross_entropy<double>(h, labels).value);
  };
  std::vector<LayerCache<double>> caches;
  const auto h = model.forward(g.adj, x, caches, rate, seed);
  const auto loss = softmax_cross_entropy<double>(h, labels);
  const auto grads = model.backward(g.adj, g.adj.transposed(), caches, loss.grad);
  const auto res = gradcheck<double>(x.flat(), grads[0].d_h_in.flat(), loss_fn, 1e-6);
  EXPECT_LT(res.max_rel_error, 2e-4);
  auto& w = model.layer(0).weights();
  const auto res_w = gradcheck<double>(w.flat(), grads[0].d_w.flat(), loss_fn, 1e-6);
  EXPECT_LT(res_w.max_rel_error, 2e-4);
}

TEST(Dropout, TrainerWithDropoutStillLearns) {
  // Two-community SBM with weakly informative features — a graph-aligned
  // task GAT can learn despite the dropout noise.
  const auto sbm = graph::generate_sbm(
      {.n = 50, .communities = 2, .p_in = 0.3, .p_out = 0.03, .seed = 57});
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  const auto g = graph::build_graph<double>(sbm.edges, opt);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {8, 2};
  cfg.hidden_activation = Activation::kTanh;
  GnnModel<double> model(cfg);
  DenseMatrix<double> x(50, 4);
  Rng rng(59);
  for (index_t i = 0; i < 50; ++i) {
    for (index_t f = 0; f < 4; ++f) {
      const double base =
          (sbm.labels[static_cast<std::size_t>(i)] == 0 ? 0.5 : -0.5);
      x(i, f) = base + rng.next_uniform(-1.0, 1.0);
    }
  }
  Trainer<double> trainer(model, std::make_unique<AdamOptimizer<double>>(0.02),
                          /*dropout_rate=*/0.2);
  const auto losses = trainer.train(g.adj, x, sbm.labels, 200);
  EXPECT_LT(losses.back(), 0.5 * losses.front());
  EXPECT_GT(accuracy<double>(model.infer(g.adj, x), sbm.labels), 0.9);
}

}  // namespace
}  // namespace agnn
