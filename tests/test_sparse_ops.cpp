// Tests for SDDMM, graph softmax (Section 4.2) and its backward, sparse
// reductions, and the X + X^T building block — each against a dense oracle.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "tensor/reference_impls.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::random_dense;
using testing::random_sparse;

class SddmmSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SddmmSweep, MatchesDenseSampledProduct) {
  const auto [n, k, density] = GetParam();
  const auto a = random_sparse<double>(n, density, 101);
  const auto x = random_dense<double>(n, k, 103);
  const auto y = random_dense<double>(n, k, 107);
  const auto out = sddmm(a, x, y);
  // Oracle: out(i,j) = a(i,j) * (X Y^T)(i,j)
  const auto xyt = matmul_nt(x, y);
  const auto ref = reference::sample_dense(a, xyt);
  testing::expect_sparse_near(out, ref, 1e-9, "sddmm");
}

INSTANTIATE_TEST_SUITE_P(Shapes, SddmmSweep,
                         ::testing::Values(std::tuple{5, 3, 0.5},
                                           std::tuple{16, 8, 0.2},
                                           std::tuple{40, 16, 0.1},
                                           std::tuple{64, 1, 0.05},
                                           std::tuple{1, 4, 1.0}));

TEST(SparseOps, SddmmShapeMismatchThrows) {
  const auto a = random_sparse<double>(4, 0.5, 1);
  const auto x = random_dense<double>(4, 3, 2);
  const auto y = random_dense<double>(4, 2, 3);
  EXPECT_THROW(sddmm(a, x, y), std::logic_error);
}

TEST(SparseOps, HadamardSamePattern) {
  const auto a = random_sparse<double>(10, 0.3, 5);
  auto b = a;
  auto bv = b.vals_mutable();
  for (index_t e = 0; e < b.nnz(); ++e) bv[static_cast<std::size_t>(e)] = 2.0;
  const auto h = hadamard_same_pattern(a, b);
  for (index_t e = 0; e < h.nnz(); ++e) {
    EXPECT_DOUBLE_EQ(h.val_at(e), 2.0 * a.val_at(e));
  }
}

TEST(SparseOps, MapValuesAppliesFunction) {
  const auto a = random_sparse<double>(8, 0.4, 7);
  const auto e = map_values(a, [](double v) { return v * v; });
  for (index_t i = 0; i < a.nnz(); ++i) {
    EXPECT_DOUBLE_EQ(e.val_at(i), a.val_at(i) * a.val_at(i));
  }
}

TEST(SparseOps, RowAndColSums) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 3;
  coo.push_back(0, 0, 1.0);
  coo.push_back(0, 2, 2.0);
  coo.push_back(2, 0, 4.0);
  const auto a = CsrMatrix<double>::from_coo(coo);
  const auto rs = sparse_row_sums(a);
  const auto cs = sparse_col_sums(a);
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 0.0);
  EXPECT_DOUBLE_EQ(rs[2], 4.0);
  EXPECT_DOUBLE_EQ(cs[0], 5.0);
  EXPECT_DOUBLE_EQ(cs[1], 0.0);
  EXPECT_DOUBLE_EQ(cs[2], 2.0);
}

class SoftmaxSweep : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SoftmaxSweep, RowsSumToOne) {
  const auto [n, density, seed] = GetParam();
  auto a = random_sparse<double>(n, density, seed);
  // Spread the score range to stress the max-subtraction path.
  auto v = a.vals_mutable();
  Rng rng(seed + 1000);
  for (auto& x : v) x = rng.next_uniform(-50.0, 50.0);
  const auto s = row_softmax(a);
  for (index_t i = 0; i < s.rows(); ++i) {
    if (s.row_nnz(i) == 0) continue;
    double sum = 0;
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      EXPECT_GT(s.val_at(e), 0.0);
      sum += s.val_at(e);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_P(SoftmaxSweep, MatchesDenseMaskedOracle) {
  const auto [n, density, seed] = GetParam();
  auto a = random_sparse<double>(n, density, seed);
  auto v = a.vals_mutable();
  Rng rng(seed + 2000);
  for (auto& x : v) x = rng.next_uniform(-5.0, 5.0);
  const auto s = row_softmax(a);
  DenseMatrix<double> scores(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      scores(i, a.col_at(e)) = a.val_at(e);
    }
  }
  const auto ref = reference::masked_row_softmax_dense(a, scores);
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      EXPECT_NEAR(s.val_at(e), ref(i, s.col_at(e)), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SoftmaxSweep,
                         ::testing::Values(std::tuple{6, 0.5, 1},
                                           std::tuple{20, 0.2, 2},
                                           std::tuple{50, 0.1, 3},
                                           std::tuple{1, 1.0, 4}));

TEST(SparseOps, SoftmaxInvariantToRowShift) {
  // softmax(x + c) == softmax(x): the global formulation's normalization
  // must cancel any per-row shift.
  auto a = random_sparse<double>(12, 0.4, 9);
  auto shifted = a;
  auto sv = shifted.vals_mutable();
  for (index_t i = 0; i < shifted.rows(); ++i) {
    for (index_t e = shifted.row_begin(i); e < shifted.row_end(i); ++e) {
      sv[static_cast<std::size_t>(e)] += 7.5;
    }
  }
  testing::expect_sparse_near(row_softmax(a), row_softmax(shifted), 1e-12,
                              "shift invariance");
}

TEST(SparseOps, SoftmaxBackwardMatchesFiniteDifferences) {
  const index_t n = 10;
  auto x = random_sparse<double>(n, 0.35, 21);
  // Loss: sum of g ⊙ softmax(x) for a fixed random g.
  auto g = x;
  {
    auto gv = g.vals_mutable();
    Rng rng(22);
    for (auto& v : gv) v = rng.next_uniform(-1.0, 1.0);
  }
  auto loss = [&](const CsrMatrix<double>& xx) {
    const auto s = row_softmax(xx);
    double l = 0;
    for (index_t e = 0; e < s.nnz(); ++e) l += s.val_at(e) * g.val_at(e);
    return l;
  };
  const auto s = row_softmax(x);
  const auto dx = row_softmax_backward(s, g);
  const double eps = 1e-6;
  for (index_t e = 0; e < x.nnz(); ++e) {
    auto xp = x, xm = x;
    xp.vals_mutable()[static_cast<std::size_t>(e)] += eps;
    xm.vals_mutable()[static_cast<std::size_t>(e)] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx.val_at(e), numeric, 1e-7) << "at nnz " << e;
  }
}

TEST(SparseOps, AddTransposeMatchesDense) {
  const auto a = random_sparse<double>(15, 0.2, 37);
  const auto ap = add_transpose(a);
  const auto d = a.to_dense();
  const auto dp = ap.to_dense();
  for (index_t i = 0; i < 15; ++i) {
    for (index_t j = 0; j < 15; ++j) {
      EXPECT_NEAR(dp(i, j), d(i, j) + d(j, i), 1e-12);
    }
  }
}

TEST(SparseOps, SpmmMatchesDense) {
  const auto a = random_sparse<double>(18, 0.25, 41);
  const auto h = random_dense<double>(18, 7, 43);
  const auto out = spmm(a, h);
  const auto ref = reference::matmul_naive(a.to_dense(), h);
  testing::expect_matrix_near(out, ref, 1e-10, "spmm");
}

TEST(SparseOps, SpmmAccumulateAddsIntoOutput) {
  const auto a = random_sparse<double>(10, 0.3, 47);
  const auto h = random_dense<double>(10, 4, 53);
  DenseMatrix<double> out(10, 4, 1.0);
  spmm_accumulate(a, h, out);
  const auto ref = spmm(a, h);
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], ref.data()[i] + 1.0, 1e-12);
  }
}

TEST(SparseOps, SpmmmPicksEitherOrderConsistently) {
  const auto a = random_sparse<double>(12, 0.3, 59);
  const auto h = random_dense<double>(12, 6, 61);
  const auto w = random_dense<double>(6, 9, 67);
  const auto out = spmmm(a, h, w);
  const auto ref = matmul(spmm(a, h), w);
  testing::expect_matrix_near(out, ref, 1e-9, "spmmm");
}

TEST(SparseOps, MspmmMatchesExplicit) {
  const auto a = random_sparse<double>(11, 0.3, 71);
  const auto x = random_dense<double>(11, 4, 73);
  const auto y = random_dense<double>(11, 5, 79);
  const auto out = mspmm(x, a, y);
  const auto ref = matmul_tn(x, spmm(a, y));
  testing::expect_matrix_near(out, ref, 1e-10, "mspmm");
}

// Degenerate graphs through the softmax backward — adversarial families of
// the differential harness (tests/differential), pinned in the unit suite.
TEST(SparseOps, SoftmaxBackwardSelfLoopOnlyIsExactlyZero) {
  // Every softmax row has a single edge, so S(i,i) = 1 and the Jacobian
  // row-dot equals dS(i,i): dX must be exactly 0 at every edge.
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 4;
  for (index_t i = 0; i < 4; ++i) coo.push_back(i, i, 0.5 + 0.25 * double(i));
  const auto scores = CsrMatrix<double>::from_coo(coo);
  const auto s = row_softmax(scores);
  for (index_t e = 0; e < s.nnz(); ++e) EXPECT_EQ(s.val_at(e), 1.0);
  auto ds = s;
  {
    auto v = ds.vals_mutable();
    Rng rng(89);
    for (auto& x : v) x = rng.next_uniform(-3, 3);
  }
  const auto dx = row_softmax_backward(s, ds);
  for (index_t e = 0; e < dx.nnz(); ++e) EXPECT_EQ(dx.val_at(e), 0.0);
}

TEST(SparseOps, SoftmaxBackwardEmptyGraph) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 0;
  const auto s = row_softmax(CsrMatrix<double>::from_coo(coo));
  const auto dx = row_softmax_backward(s, s);
  EXPECT_EQ(dx.rows(), 0);
  EXPECT_EQ(dx.nnz(), 0);
}

TEST(SparseOps, SoftmaxBackwardAllIsolatedVertices) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 7;  // vertices but no edges: all rows empty
  const auto s = row_softmax(CsrMatrix<double>::from_coo(coo));
  const auto dx = row_softmax_backward(s, s);
  EXPECT_EQ(dx.rows(), 7);
  EXPECT_EQ(dx.nnz(), 0);
}

// ---- upfront shape asserts (spmmm regression) -------------------------------
// A k-mismatch used to surface from the inner spmm/matmul with a message
// blaming the wrong kernel; the asserts now name spmmm itself.

bool message_names(const std::logic_error& e, const char* kernel) {
  return std::string(e.what()).find(kernel) != std::string::npos;
}

TEST(ShapeAsserts, SpmmmNamesItself) {
  const auto a = testing::random_sparse<double>(12, 0.3, 307);
  const auto h = random_dense<double>(12, 5, 311);
  const auto w_bad = random_dense<double>(6, 3, 313);  // h.cols() != w.rows()
  DenseMatrix<double> scratch, out;
  try {
    spmmm(a, h, w_bad, scratch, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
  const auto h_bad = random_dense<double>(7, 5, 317);  // a.cols() != h.rows()
  const auto w = random_dense<double>(5, 3, 331);
  try {
    spmmm(a, h_bad, w, scratch, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
  try {
    spmmm(a, h, w, out, out);  // aliased scratch
    FAIL() << "expected an alias assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
}

TEST(ShapeAsserts, AggregateAndMspmmValidateUpfront) {
  const auto a = testing::random_sparse<double>(12, 0.3, 337);
  const auto h_bad = random_dense<double>(7, 5, 347);
  DenseMatrix<double> out;
  try {
    aggregate(a, h_bad, Aggregation::kMin, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "aggregate")) << e.what();
  }
  const auto x = random_dense<double>(12, 4, 349);
  const auto y = random_dense<double>(12, 3, 353);
  DenseMatrix<double> scratch;
  try {
    mspmm(x, a, y, scratch, scratch);
    FAIL() << "expected an alias assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "mspmm")) << e.what();
  }
}

}  // namespace
}  // namespace agnn
