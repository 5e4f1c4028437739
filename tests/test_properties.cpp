// Property-based tests: mathematical invariants of the kernels and
// formulations, checked across randomized sweeps of shapes, densities, and
// seeds. Each property is a distinct algebraic fact the implementation must
// respect — collectively they pin the semantics far more tightly than
// example-based tests.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/reorder.hpp"
#include "graph/graph.hpp"
#include "tensor/fused.hpp"
#include "tensor/spgemm.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::random_dense;
using testing::random_sparse;

class SeedSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(1, 9));

// ---- linearity ----------------------------------------------------------------

TEST_P(SeedSweep, SpmmIsLinearInTheDenseOperand) {
  const int s = GetParam();
  const auto a = random_sparse<double>(24, 0.25, 1000 + s);
  const auto h1 = random_dense<double>(24, 6, 2000 + s);
  const auto h2 = random_dense<double>(24, 6, 3000 + s);
  const double alpha = 1.7, beta = -0.4;
  DenseMatrix<double> combo(24, 6);
  for (index_t i = 0; i < combo.size(); ++i) {
    combo.data()[i] = alpha * h1.data()[i] + beta * h2.data()[i];
  }
  auto lhs = spmm(a, combo);
  auto rhs = spmm(a, h1);
  scale_inplace(rhs, alpha);
  axpy(beta, spmm(a, h2), rhs);
  testing::expect_matrix_near(lhs, rhs, 1e-9, "spmm linearity");
}

TEST_P(SeedSweep, SddmmIsBilinear) {
  const int s = GetParam();
  const auto a = random_sparse<double>(16, 0.3, 1100 + s);
  const auto x = random_dense<double>(16, 5, 1200 + s);
  const auto y = random_dense<double>(16, 5, 1300 + s);
  // sddmm(A, 2x, 3y) == 6 * sddmm(A, x, y)
  auto x2 = x;
  scale_inplace(x2, 2.0);
  auto y3 = y;
  scale_inplace(y3, 3.0);
  const auto lhs = sddmm(a, x2, y3);
  const auto base = sddmm(a, x, y);
  for (index_t e = 0; e < lhs.nnz(); ++e) {
    EXPECT_NEAR(lhs.val_at(e), 6.0 * base.val_at(e), 1e-9);
  }
}

// ---- transposition identities -----------------------------------------------------

TEST_P(SeedSweep, SpgemmTransposeIdentity) {
  // (A B)^T == B^T A^T.
  const int s = GetParam();
  const auto a = random_sparse<double>(14, 0.3, 1400 + s);
  const auto b = random_sparse<double>(14, 0.3, 1500 + s);
  const auto lhs = spgemm(a, b).transposed().to_dense();
  const auto rhs = spgemm(b.transposed(), a.transposed()).to_dense();
  testing::expect_matrix_near(lhs, rhs, 1e-9, "(AB)^T = B^T A^T");
}

TEST_P(SeedSweep, SddmmTransposeIdentity) {
  // sddmm(A, X, Y)^T == sddmm(A^T, Y, X) — the identity the backward passes
  // exploit when sampling on the reversed graph.
  const int s = GetParam();
  const auto a = random_sparse<double>(18, 0.25, 1600 + s);
  const auto x = random_dense<double>(18, 4, 1700 + s);
  const auto y = random_dense<double>(18, 4, 1800 + s);
  const auto lhs = sddmm(a, x, y).transposed();
  const auto rhs = sddmm(a.transposed(), y, x);
  testing::expect_sparse_near(lhs, rhs, 1e-10, "sddmm transpose");
}

TEST_P(SeedSweep, AddTransposeIsSymmetric) {
  const auto x = random_sparse<double>(20, 0.2, 1900 + GetParam());
  const auto xp = add_transpose(x);
  const auto xpt = xp.transposed();
  testing::expect_sparse_near(xp, xpt, 1e-12, "X + X^T symmetry");
}

// ---- identity elements --------------------------------------------------------------

TEST_P(SeedSweep, SpmmWithIdentityMatrixIsIdentity) {
  const int s = GetParam();
  const index_t n = 15;
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = n;
  for (index_t i = 0; i < n; ++i) coo.push_back(i, i, 1.0);
  const auto eye = CsrMatrix<double>::from_coo(coo);
  const auto h = random_dense<double>(n, 7, 2100 + s);
  testing::expect_matrix_near(spmm(eye, h), h, 0.0, "I H = H");
  // And identity is neutral for SpGEMM.
  const auto a = random_sparse<double>(n, 0.3, 2200 + s);
  testing::expect_matrix_near(spgemm(eye, a).to_dense(), a.to_dense(), 1e-12,
                              "I A = A");
}

// ---- tropical semiring shift property -------------------------------------------------

TEST_P(SeedSweep, MinPlusShiftsByConstant) {
  // min_j (0 + h_j + c) == (min_j h_j) + c: adding a constant to every
  // feature shifts the min-aggregation output by exactly that constant.
  const int s = GetParam();
  auto a = random_sparse<double>(12, 0.4, 2300 + s, /*binary=*/true);
  auto v = a.vals_mutable();
  for (auto& x : v) x = 0.0;
  const auto h = random_dense<double>(12, 3, 2400 + s);
  auto h_shift = h;
  for (index_t i = 0; i < h_shift.size(); ++i) h_shift.data()[i] += 2.5;
  const auto base = spmm_semiring<MinPlusSemiring<double>>(a, h);
  const auto shifted = spmm_semiring<MinPlusSemiring<double>>(a, h_shift);
  for (index_t i = 0; i < base.size(); ++i) {
    if (std::isinf(base.data()[i])) {
      EXPECT_TRUE(std::isinf(shifted.data()[i]));
    } else {
      EXPECT_NEAR(shifted.data()[i], base.data()[i] + 2.5, 1e-12);
    }
  }
}

// ---- attention-specific invariances --------------------------------------------------

TEST_P(SeedSweep, VaPsiIsQuadraticInFeatureScale) {
  const int s = GetParam();
  const auto g = testing::small_graph<double>(20, 80, 2500 + s);
  const auto h = random_dense<double>(20, 6, 2600 + s);
  auto h2 = h;
  scale_inplace(h2, 3.0);
  const auto base = psi_va(g.adj, h);
  const auto scaled = psi_va(g.adj, h2);
  for (index_t e = 0; e < base.nnz(); ++e) {
    EXPECT_NEAR(scaled.val_at(e), 9.0 * base.val_at(e), 1e-8);
  }
}

TEST_P(SeedSweep, AgnnPsiIsScaleInvariant) {
  // Cosine similarity ignores positive feature rescaling — per vertex.
  const int s = GetParam();
  const auto g = testing::small_graph<double>(20, 80, 2700 + s);
  const auto h = random_dense<double>(20, 6, 2800 + s);
  auto h2 = h;
  // Scale each ROW by a different positive factor.
  Rng rng(2900 + s);
  for (index_t i = 0; i < 20; ++i) {
    const double c = rng.next_uniform(0.5, 4.0);
    for (index_t j = 0; j < 6; ++j) h2(i, j) *= c;
  }
  testing::expect_sparse_near(psi_agnn(g.adj, h), psi_agnn(g.adj, h2), 1e-9,
                              "AGNN scale invariance");
}

TEST_P(SeedSweep, GatPsiInvariantUnderSourceShift) {
  // Shifting every s1 by a constant cancels in the per-row softmax
  // (with the linear slope = 1 so LeakyReLU commutes with the shift).
  const int s = GetParam();
  const auto g = testing::small_graph<double>(18, 70, 3000 + s);
  Rng rng(3100 + s);
  std::vector<double> s1(18), s2(18);
  for (auto& v : s1) v = rng.next_uniform(-1, 1);
  for (auto& v : s2) v = rng.next_uniform(-1, 1);
  auto s1_shift = s1;
  for (auto& v : s1_shift) v += 5.0;
  const auto base = psi_gat<double>(g.adj, s1, s2, 1.0);
  const auto shifted = psi_gat<double>(g.adj, s1_shift, s2, 1.0);
  testing::expect_sparse_near(base.psi, shifted.psi, 1e-9, "GAT shift");
}

// ---- normalization commutes with relabeling --------------------------------------------

TEST_P(SeedSweep, SymNormalizeCommutesWithPermutation) {
  const int s = GetParam();
  const auto g = testing::small_graph<double>(22, 90, 3200 + s);
  const auto perm = graph::random_permutation(22, 3300 + s);
  const auto lhs = graph::sym_normalize(graph::permute_graph(g.adj, perm));
  const auto rhs = graph::permute_graph(graph::sym_normalize(g.adj), perm);
  testing::expect_matrix_near(lhs.to_dense(), rhs.to_dense(), 1e-12,
                              "normalize/permute commute");
}

// ---- BFS level structure ---------------------------------------------------------------

TEST_P(SeedSweep, BfsLevelsDifferByAtMostOneAcrossEdges) {
  const int s = GetParam();
  const auto g = testing::small_graph<double>(40, 120, 3400 + s);
  const auto levels = graph::bfs_levels(g.adj, 0);
  for (index_t u = 0; u < 40; ++u) {
    if (levels[static_cast<std::size_t>(u)] < 0) continue;
    for (index_t e = g.adj.row_begin(u); e < g.adj.row_end(u); ++e) {
      const index_t v = g.adj.col_at(e);
      ASSERT_GE(levels[static_cast<std::size_t>(v)], 0)
          << "neighbor of a reached vertex must be reached";
      EXPECT_LE(std::abs(levels[static_cast<std::size_t>(u)] -
                         levels[static_cast<std::size_t>(v)]),
                1);
    }
  }
}

// ---- CSR block recomposition -------------------------------------------------------------

TEST_P(SeedSweep, BlocksRecomposeTheMatrix) {
  const int s = GetParam();
  const index_t n = 21;  // deliberately not divisible by the grid
  const auto a = random_sparse<double>(n, 0.3, 3500 + s);
  const auto full = a.to_dense();
  DenseMatrix<double> recomposed(n, n, 0.0);
  const int q = 4;
  for (int bi = 0; bi < q; ++bi) {
    for (int bj = 0; bj < q; ++bj) {
      const auto ri = dist::block_range(n, q, bi);
      const auto cj = dist::block_range(n, q, bj);
      const auto blk = a.block(ri.begin, ri.end, cj.begin, cj.end).to_dense();
      for (index_t i = 0; i < blk.rows(); ++i) {
        for (index_t j = 0; j < blk.cols(); ++j) {
          recomposed(ri.begin + i, cj.begin + j) += blk(i, j);
        }
      }
    }
  }
  testing::expect_matrix_near(recomposed, full, 0.0, "block recomposition");
}

// ---- communication-layer properties ----------------------------------------------------

TEST_P(SeedSweep, AllreduceIsLinear) {
  const int s = GetParam();
  const int p = 1 + (s % 4) * 2 + 1;  // odd rank counts 2..9
  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(p));
  Rng rng(3600 + s);
  for (auto& in : inputs) {
    in.resize(12);
    for (auto& v : in) v = rng.next_uniform(-1, 1);
  }
  std::vector<double> expected(12, 0.0);
  for (const auto& in : inputs) {
    for (std::size_t i = 0; i < 12; ++i) expected[i] += in[i];
  }
  comm::SpmdRuntime::run(p, [&](comm::Communicator& c) {
    std::vector<double> buf = inputs[static_cast<std::size_t>(c.rank())];
    c.allreduce_sum(std::span<double>(buf));
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(buf[i], expected[i], 1e-12) << "rank " << c.rank();
    }
  });
}

TEST_P(SeedSweep, DistVolumeIndependentOfFeatureValues) {
  // Data movement of the global engine is a function of shapes only.
  const int s = GetParam();
  const auto g = testing::small_graph<double>(32, 160, 3700 + s);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {4};
  cfg.seed = 1;
  auto run_with = [&](std::uint64_t xseed) {
    const auto x = random_dense<double>(32, 4, xseed);
    const auto stats = comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      dist::DistEngine<double> engine(world, g.adj, model, dist::DistPolicy::k1_5D);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    });
    return comm::max_bytes_sent(stats);
  };
  EXPECT_EQ(run_with(3800 + s), run_with(4900 + s));
}

// ---- model-level: attention rows are convex weights ------------------------------------

TEST_P(SeedSweep, GatOutputIsInConvexHullOfProjectedNeighbors) {
  // Each GAT output row is a convex combination of the projected neighbor
  // features: componentwise it must lie within [min_j, max_j] over the
  // vertex's neighborhood.
  const int s = GetParam();
  const auto g = testing::small_graph<double>(16, 60, 4000 + s);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {4};
  cfg.output_activation = Activation::kIdentity;
  cfg.seed = static_cast<std::uint64_t>(s);
  GnnModel<double> model(cfg);
  const auto x = random_dense<double>(16, 4, 4100 + s);
  const auto hp = matmul(x, model.layer(0).weights());
  const auto z = model.infer(g.adj, x);
  for (index_t i = 0; i < 16; ++i) {
    if (g.adj.row_nnz(i) == 0) continue;
    for (index_t f = 0; f < 4; ++f) {
      double lo = std::numeric_limits<double>::infinity(), hi = -lo;
      for (index_t e = g.adj.row_begin(i); e < g.adj.row_end(i); ++e) {
        lo = std::min(lo, hp(g.adj.col_at(e), f));
        hi = std::max(hi, hp(g.adj.col_at(e), f));
      }
      EXPECT_GE(z(i, f), lo - 1e-9);
      EXPECT_LE(z(i, f), hi + 1e-9);
    }
  }
}

// ---- graph build idempotence -------------------------------------------------------------

TEST_P(SeedSweep, BuildPipelineIsIdempotent) {
  const int s = GetParam();
  const auto el = graph::generate_erdos_renyi_m(30, 120, 4200 + s);
  const auto g1 = graph::build_graph<double>(el);
  // Re-feed the built graph's edges through the pipeline: nothing changes.
  graph::EdgeList el2;
  el2.n = 30;
  const auto coo = g1.adj.to_coo();
  el2.src = coo.rows;
  el2.dst = coo.cols;
  const auto g2 = graph::build_graph<double>(el2);
  EXPECT_TRUE(g1.adj.same_pattern(g2.adj));
}

}  // namespace
}  // namespace agnn
