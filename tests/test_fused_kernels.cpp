// The fused Psi kernels (Section 6.2) must agree exactly with the unfused
// reference implementations that materialize the virtual dense matrices.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>

#include "tensor/fused.hpp"
#include "tensor/reference_impls.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::random_dense;
using testing::random_sparse;

class FusedSweep : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(FusedSweep, VaMatchesUnfused) {
  const auto [n, k, density, seed] = GetParam();
  const auto a = random_sparse<double>(n, density, seed, /*binary=*/true);
  const auto h = random_dense<double>(n, k, seed + 100);
  testing::expect_sparse_near(psi_va(a, h), reference::psi_va_unfused(a, h), 1e-9,
                              "psi_va");
}

TEST_P(FusedSweep, AgnnMatchesUnfused) {
  const auto [n, k, density, seed] = GetParam();
  const auto a = random_sparse<double>(n, density, seed, /*binary=*/true);
  const auto h = random_dense<double>(n, k, seed + 200);
  testing::expect_sparse_near(psi_agnn(a, h), reference::psi_agnn_unfused(a, h),
                              1e-9, "psi_agnn");
}

TEST_P(FusedSweep, GatScoresMatchUnfused) {
  const auto [n, k, density, seed] = GetParam();
  const auto a = random_sparse<double>(n, density, seed, /*binary=*/true);
  const auto hp = random_dense<double>(n, k, seed + 300);
  const auto a1 = random_dense<double>(k, 1, seed + 301);
  const auto a2 = random_dense<double>(k, 1, seed + 302);
  const auto s1 = matvec(hp, std::span<const double>(a1.data(), static_cast<std::size_t>(k)));
  const auto s2 = matvec(hp, std::span<const double>(a2.data(), static_cast<std::size_t>(k)));
  const double slope = 0.2;
  const auto gp = psi_gat<double>(a, s1, s2, slope);
  // Pre-softmax scores against the unfused rank-1 materialization.
  const auto scores_ref = reference::gat_scores_unfused<double>(a, s1, s2, slope);
  // psi_gat caches *pre-activation* C; compare post-activation A ⊙ lrelu(C).
  auto e_fused = gp.scores_pre;
  {
    auto v = e_fused.vals_mutable();
    for (index_t i = 0; i < e_fused.nnz(); ++i) {
      const double c = v[static_cast<std::size_t>(i)];
      v[static_cast<std::size_t>(i)] = (c > 0 ? c : slope * c) * a.val_at(i);
    }
  }
  testing::expect_sparse_near(e_fused, scores_ref, 1e-9, "gat scores");
  // Softmax result against the sparse softmax of the reference scores.
  testing::expect_sparse_near(gp.psi, row_softmax(scores_ref), 1e-9, "gat psi");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FusedSweep,
    ::testing::Values(std::tuple{5, 3, 0.6, 1}, std::tuple{16, 8, 0.3, 2},
                      std::tuple{40, 16, 0.15, 3}, std::tuple{64, 4, 0.08, 4},
                      std::tuple{10, 1, 0.5, 5}));

TEST(FusedKernels, VaPsiIsSymmetricOnSymmetricGraph) {
  // H H^T is symmetric; if A is symmetric then Psi must be too.
  const auto g = testing::small_graph<double>(30, 120, 7);
  const auto h = random_dense<double>(30, 6, 11);
  const auto psi = psi_va(g.adj, h);
  const auto psi_t = psi.transposed();
  testing::expect_sparse_near(psi, psi_t, 1e-10, "VA symmetry");
}

TEST(FusedKernels, AgnnScoresAreCosinesInUnitRange) {
  const auto g = testing::small_graph<double>(25, 100, 13);
  const auto h = random_dense<double>(25, 8, 17);
  const auto psi = psi_agnn(g.adj, h);
  for (index_t e = 0; e < psi.nnz(); ++e) {
    EXPECT_LE(std::abs(psi.val_at(e)), 1.0 + 1e-9);
  }
  // Self-loops have cosine exactly 1.
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  const auto g2 = graph::build_graph<double>(
      graph::generate_erdos_renyi_m(10, 30, 19), opt);
  const auto h2 = random_dense<double>(10, 4, 23);
  const auto psi2 = psi_agnn(g2.adj, h2);
  for (index_t i = 0; i < psi2.rows(); ++i) {
    for (index_t e = psi2.row_begin(i); e < psi2.row_end(i); ++e) {
      if (psi2.col_at(e) == i) {
        EXPECT_NEAR(psi2.val_at(e), 1.0, 1e-9);
      }
    }
  }
}

// Regression: an all-zero feature row used to produce 0/0 = NaN cosines.
// Cauchy-Schwarz bounds every dot product by the norm product, so clamping
// the denominator must give exactly 0 on degenerate edges and leave all
// other edges untouched.
TEST(FusedKernels, AgnnDegenerateZeroRowYieldsZeroNotNan) {
  const auto a = random_sparse<double>(12, 0.4, 41, /*binary=*/true);
  auto h = random_dense<double>(12, 6, 43);
  for (index_t f = 0; f < h.cols(); ++f) h(3, f) = 0.0;  // degenerate vertex

  const auto psi = psi_agnn(a, h);
  for (index_t i = 0; i < psi.rows(); ++i) {
    for (index_t e = psi.row_begin(i); e < psi.row_end(i); ++e) {
      const double v = psi.val_at(e);
      EXPECT_TRUE(std::isfinite(v)) << "(" << i << "," << psi.col_at(e) << ")";
      if (i == 3 || psi.col_at(e) == 3) {
        EXPECT_EQ(v, 0.0) << "degenerate edge (" << i << "," << psi.col_at(e) << ")";
      }
    }
  }

  // Non-degenerate edges are bitwise unchanged by the eps clamp: compare
  // against the same graph with the zero row replaced by a unit vector.
  auto h2 = h;
  h2(3, 0) = 1.0;
  const auto psi2 = psi_agnn(a, h2);
  for (index_t i = 0; i < psi.rows(); ++i) {
    for (index_t e = psi.row_begin(i); e < psi.row_end(i); ++e) {
      if (i == 3 || psi.col_at(e) == 3) continue;
      EXPECT_EQ(psi.val_at(e), psi2.val_at(e));
    }
  }
}

TEST(FusedKernels, GatPsiRowsAreStochastic) {
  const auto g = testing::small_graph<double>(20, 80, 29);
  const index_t n = 20, k = 5;
  const auto hp = random_dense<double>(n, k, 31);
  const auto s1 = matvec(hp, std::span<const double>(
                                 random_dense<double>(k, 1, 32).data(),
                                 static_cast<std::size_t>(k)));
  std::vector<double> s1v = s1;
  const auto s2 = matvec(hp, std::span<const double>(
                                 random_dense<double>(k, 1, 33).data(),
                                 static_cast<std::size_t>(k)));
  const auto gp = psi_gat<double>(g.adj, s1v, s2, 0.2);
  for (index_t i = 0; i < n; ++i) {
    if (gp.psi.row_nnz(i) == 0) continue;
    double sum = 0;
    for (index_t e = gp.psi.row_begin(i); e < gp.psi.row_end(i); ++e) {
      EXPECT_GE(gp.psi.val_at(e), 0.0);
      sum += gp.psi.val_at(e);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(FusedKernels, FusedVaAggregateMatchesTwoKernelPipeline) {
  const auto g = testing::small_graph<double>(35, 150, 37);
  const auto h = random_dense<double>(35, 7, 41);
  const auto x = random_dense<double>(35, 9, 43);
  const auto fused = fused_va_aggregate(g.adj, h, x);
  const auto pipeline = spmm(psi_va(g.adj, h), x);
  testing::expect_matrix_near(fused, pipeline, 1e-9, "fused VA aggregate");
}

TEST(FusedKernels, FusedGatAggregateMatchesTwoKernelPipeline) {
  const auto g = testing::small_graph<double>(28, 120, 47);
  const index_t n = 28, k = 6;
  const auto hp = random_dense<double>(n, k, 53);
  const auto x = random_dense<double>(n, 4, 59);
  Rng rng(61);
  std::vector<double> s1(static_cast<std::size_t>(n)), s2(static_cast<std::size_t>(n));
  for (auto& v : s1) v = rng.next_uniform(-1, 1);
  for (auto& v : s2) v = rng.next_uniform(-1, 1);
  const auto fused = fused_gat_aggregate<double>(g.adj, s1, s2, 0.2, x);
  const auto gp = psi_gat<double>(g.adj, s1, s2, 0.2);
  const auto pipeline = spmm(gp.psi, x);
  testing::expect_matrix_near(fused, pipeline, 1e-9, "fused GAT aggregate");
  (void)hp;
}

// Degenerate graphs through the GAT path — the adversarial families of the
// differential harness (tests/differential), pinned here so the fast unit
// suite covers them even when the fuzz budget is skipped.
CsrMatrix<double> graph_from_edges(
    index_t n, std::initializer_list<std::pair<index_t, index_t>> edges) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = n;
  for (const auto& [i, j] : edges) coo.push_back(i, j, 1.0);
  return CsrMatrix<double>::from_coo(coo);
}

TEST(FusedKernels, GatHandlesEmptyGraph) {
  const auto a = graph_from_edges(0, {});
  const auto gp = psi_gat<double>(a, {}, {}, 0.2);
  EXPECT_EQ(gp.psi.rows(), 0);
  EXPECT_EQ(gp.psi.nnz(), 0);
  const DenseMatrix<double> x(0, 3, 0.0);
  const auto out = fused_gat_aggregate<double>(a, {}, {}, 0.2, x);
  EXPECT_EQ(out.rows(), 0);
  EXPECT_EQ(out.cols(), 3);
}

TEST(FusedKernels, GatHandlesSingleVertexSelfLoop) {
  const auto a = graph_from_edges(1, {{0, 0}});
  const std::vector<double> s1{-7.0}, s2{3.5};
  const auto gp = psi_gat<double>(a, s1, s2, 0.2);
  ASSERT_EQ(gp.psi.nnz(), 1);
  EXPECT_EQ(gp.psi.val_at(0), 1.0);  // softmax over one edge is exactly 1
  const auto x = random_dense<double>(1, 4, 71);
  const auto out = fused_gat_aggregate<double>(a, s1, s2, 0.2, x);
  for (index_t g = 0; g < 4; ++g) EXPECT_EQ(out(0, g), x(0, g));
}

TEST(FusedKernels, GatHandlesAllIsolatedVertices) {
  const auto a = graph_from_edges(5, {});
  const std::vector<double> s(5, 0.25);
  const auto gp = psi_gat<double>(a, s, s, 0.2);
  EXPECT_EQ(gp.psi.nnz(), 0);
  const auto x = random_dense<double>(5, 3, 73);
  const auto out = fused_gat_aggregate<double>(a, s, s, 0.2, x);
  for (index_t i = 0; i < 5; ++i)
    for (index_t g = 0; g < 3; ++g)
      EXPECT_EQ(out(i, g), 0.0) << "isolated row " << i << " must aggregate to 0";
}

// Repeated runs of the fused aggregates must be bitwise identical: each row
// is reduced by one thread in edge order, so no run-to-run reassociation is
// possible.
TEST(FusedKernels, ScheduleRepeatedRunsAreBitwiseIdentical) {
  const auto g = testing::small_graph<double>(48, 360, 91);
  const index_t n = g.adj.rows();
  const auto h = random_dense<double>(n, 5, 93);
  const auto x = random_dense<double>(n, 4, 97);
  Rng rng(99);
  std::vector<double> s1(static_cast<std::size_t>(n)), s2(static_cast<std::size_t>(n));
  for (auto& v : s1) v = rng.next_uniform(-1, 1);
  for (auto& v : s2) v = rng.next_uniform(-1, 1);
  const auto bits_equal = [](const DenseMatrix<double>& a,
                             const DenseMatrix<double>& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (index_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a.data()[i]) !=
          std::bit_cast<std::uint64_t>(b.data()[i])) {
        return false;
      }
    }
    return true;
  };
  DenseMatrix<double> va_a, va_b, gat_a, gat_b;
  fused_va_aggregate(g.adj, h, x, va_a);
  fused_va_aggregate(g.adj, h, x, va_b);
  fused_gat_aggregate<double>(g.adj, s1, s2, 0.2, x, gat_a);
  fused_gat_aggregate<double>(g.adj, s1, s2, 0.2, x, gat_b);
  EXPECT_TRUE(bits_equal(va_a, va_b)) << "fused_va_aggregate not reproducible";
  EXPECT_TRUE(bits_equal(gat_a, gat_b)) << "fused_gat_aggregate not reproducible";
}

TEST(FusedKernels, GatSelfLoopOnlyAdjacencyIsIdentity) {
  const auto a = graph_from_edges(4, {{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  std::vector<double> s1(4), s2(4);
  Rng rng(79);
  for (auto& v : s1) v = rng.next_uniform(-2, 2);
  for (auto& v : s2) v = rng.next_uniform(-2, 2);
  const auto gp = psi_gat<double>(a, s1, s2, 0.2);
  for (index_t e = 0; e < gp.psi.nnz(); ++e) EXPECT_EQ(gp.psi.val_at(e), 1.0);
  // Psi == I, so aggregation is bitwise the input.
  const auto x = random_dense<double>(4, 6, 83);
  const auto out = fused_gat_aggregate<double>(a, s1, s2, 0.2, x);
  for (index_t i = 0; i < 4; ++i)
    for (index_t g = 0; g < 6; ++g) EXPECT_EQ(out(i, g), x(i, g));
}

}  // namespace
}  // namespace agnn
