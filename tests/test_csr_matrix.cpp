// Unit and property tests for COO and CSR containers.
#include <gtest/gtest.h>

#include "tensor/coo_matrix.hpp"
#include "tensor/csr_matrix.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

CooMatrix<double> example_coo() {
  CooMatrix<double> coo;
  coo.n_rows = 3;
  coo.n_cols = 3;
  coo.push_back(2, 0, 5.0);
  coo.push_back(0, 1, 1.0);
  coo.push_back(0, 2, 2.0);
  coo.push_back(1, 1, 3.0);
  return coo;
}

TEST(CooMatrix, SortOrdersRowMajor) {
  auto coo = example_coo();
  coo.sort();
  EXPECT_EQ(coo.rows[0], 0);
  EXPECT_EQ(coo.cols[0], 1);
  EXPECT_EQ(coo.rows[3], 2);
  EXPECT_EQ(coo.cols[3], 0);
}

TEST(CooMatrix, SumDuplicatesAccumulates) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 2;
  coo.push_back(0, 0, 1.0);
  coo.push_back(0, 0, 2.0);
  coo.push_back(1, 1, 4.0);
  coo.sum_duplicates();
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.vals[0], 3.0);
}

TEST(CooMatrix, DedupBinaryClampsToOne) {
  CooMatrix<float> coo;
  coo.n_rows = coo.n_cols = 2;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.dedup_binary();
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_FLOAT_EQ(coo.vals[0], 1.0f);
}

TEST(CooMatrix, RemoveSelfLoops) {
  CooMatrix<float> coo;
  coo.n_rows = coo.n_cols = 3;
  coo.push_back(0, 0, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(2, 2, 1.0f);
  coo.remove_self_loops();
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_EQ(coo.rows[0], 0);
  EXPECT_EQ(coo.cols[0], 1);
}

TEST(CsrMatrix, FromCooRoundTrip) {
  const auto coo = example_coo();
  const auto csr = CsrMatrix<double>::from_coo(coo);
  EXPECT_EQ(csr.rows(), 3);
  EXPECT_EQ(csr.nnz(), 4);
  EXPECT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_nnz(1), 1);
  EXPECT_EQ(csr.row_nnz(2), 1);
  auto back = csr.to_coo();
  back.sort();
  auto sorted = coo;
  sorted.sort();
  EXPECT_EQ(back.rows, sorted.rows);
  EXPECT_EQ(back.cols, sorted.cols);
  EXPECT_EQ(back.vals, sorted.vals);
}

TEST(CsrMatrix, FromCooOutOfRangeThrows) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 2;
  coo.push_back(0, 5, 1.0);
  EXPECT_THROW(CsrMatrix<double>::from_coo(coo), std::logic_error);
}

TEST(CsrMatrix, ToDense) {
  const auto csr = CsrMatrix<double>::from_coo(example_coo());
  const auto d = csr.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(CsrMatrix, TransposeMatchesDenseTranspose) {
  const auto a = testing::random_sparse<double>(17, 0.2, 3);
  const auto at = a.transposed();
  const auto d = a.to_dense();
  const auto dt = at.to_dense();
  for (index_t i = 0; i < 17; ++i) {
    for (index_t j = 0; j < 17; ++j) EXPECT_DOUBLE_EQ(dt(j, i), d(i, j));
  }
}

TEST(CsrMatrix, TransposeInvolution) {
  const auto a = testing::random_sparse<double>(23, 0.15, 5);
  const auto att = a.transposed().transposed();
  EXPECT_TRUE(a.same_pattern(att));
  for (index_t e = 0; e < a.nnz(); ++e) {
    EXPECT_DOUBLE_EQ(a.val_at(e), att.val_at(e));
  }
}

// transposed_into records where each entry came from: entry p of A^T is
// edge source_edges()[p] of A, and row c of A^T lists its source rows (and
// so its source edges) in increasing order. A rectangular block checks that
// rows and columns are not confused.
TEST(CsrMatrix, SourceEdgesMapEachTransposedEntryToItsEdge) {
  const auto a = testing::random_sparse<double>(23, 0.2, 19).block(2, 19, 0, 23);
  const auto at = a.transposed();
  const auto src = at.source_edges();
  ASSERT_EQ(static_cast<index_t>(src.size()), a.nnz());
  std::vector<int> hits(static_cast<std::size_t>(a.nnz()), 0);
  for (index_t c = 0; c < at.rows(); ++c) {
    for (index_t p = at.row_begin(c); p < at.row_end(c); ++p) {
      const index_t e = src[static_cast<std::size_t>(p)];
      ASSERT_GE(e, 0);
      ASSERT_LT(e, a.nnz());
      ++hits[static_cast<std::size_t>(e)];
      EXPECT_EQ(at.vals()[static_cast<std::size_t>(p)], a.vals()[static_cast<std::size_t>(e)]);
      EXPECT_EQ(a.col_at(e), c);
      const index_t r = at.col_at(p);
      EXPECT_TRUE(a.row_begin(r) <= e && e < a.row_end(r));
      if (p > at.row_begin(c)) {
        EXPECT_LT(src[static_cast<std::size_t>(p) - 1], e);
      }
    }
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// The map is part of the value transposed_into builds: copies, moves and
// cast keep it, the constructor, from_coo and block leave it empty, and any
// assignment replaces it.
TEST(CsrMatrix, SourceEdgesFollowTheValueNotTheStorage) {
  const auto a = testing::random_sparse<double>(12, 0.3, 29);
  EXPECT_TRUE(a.source_edges().empty());  // from_coo
  const CsrMatrix<double> built(a.rows(), a.cols(),
                                {a.row_ptr().begin(), a.row_ptr().end()},
                                {a.col_idx().begin(), a.col_idx().end()},
                                {a.vals().begin(), a.vals().end()});
  EXPECT_TRUE(built.source_edges().empty());
  const auto at = a.transposed();
  const std::vector<index_t> map(at.source_edges().begin(), at.source_edges().end());
  ASSERT_EQ(static_cast<index_t>(map.size()), a.nnz());
  EXPECT_TRUE(at.block(0, 6, 0, 12).source_edges().empty());
  auto same_map = [&](const auto& m) {
    return std::vector<index_t>(m.source_edges().begin(), m.source_edges().end()) == map;
  };

  CsrMatrix<double> copy = at;
  EXPECT_TRUE(same_map(copy));
  EXPECT_TRUE(same_map(at.with_values(2.0)));
  EXPECT_TRUE(same_map(at.cast<float>()));
  CsrMatrix<double> moved = std::move(copy);
  EXPECT_TRUE(same_map(moved));

  moved = a;  // an assignment from a matrix without a map clears it
  EXPECT_TRUE(moved.source_edges().empty());
  const auto b = testing::random_sparse<double>(12, 0.2, 31);
  moved = b.transposed();  // and one from another transpose replaces it
  ASSERT_EQ(static_cast<index_t>(moved.source_edges().size()), b.nnz());
  for (index_t p = 0; p < moved.nnz(); ++p) {
    EXPECT_EQ(moved.vals()[static_cast<std::size_t>(p)],
              b.vals()[static_cast<std::size_t>(moved.source_edges()[static_cast<std::size_t>(p)])]);
  }
  a.transposed_into(moved);  // transposed_into rebuilds it in place
  EXPECT_TRUE(same_map(moved));
}

TEST(CsrMatrix, WithValuesKeepsPattern) {
  const auto a = testing::random_sparse<float>(9, 0.3, 7);
  const auto ones = a.with_values(1.0f);
  EXPECT_TRUE(a.same_pattern(ones));
  for (index_t e = 0; e < ones.nnz(); ++e) EXPECT_FLOAT_EQ(ones.val_at(e), 1.0f);
}

class CsrBlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(CsrBlockSweep, BlockMatchesDenseSlice) {
  const index_t n = 20;
  const auto a = testing::random_sparse<double>(n, 0.25, GetParam());
  const auto d = a.to_dense();
  const index_t r0 = 3, r1 = 15, c0 = 5, c1 = 18;
  const auto blk = a.block(r0, r1, c0, c1);
  EXPECT_EQ(blk.rows(), r1 - r0);
  EXPECT_EQ(blk.cols(), c1 - c0);
  const auto bd = blk.to_dense();
  for (index_t i = 0; i < blk.rows(); ++i) {
    for (index_t j = 0; j < blk.cols(); ++j) {
      EXPECT_DOUBLE_EQ(bd(i, j), d(r0 + i, c0 + j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrBlockSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(CsrMatrix, BlocksTileTheMatrix) {
  const index_t n = 16;
  const auto a = testing::random_sparse<double>(n, 0.3, 11);
  index_t total = 0;
  for (index_t bi = 0; bi < 4; ++bi) {
    for (index_t bj = 0; bj < 4; ++bj) {
      total += a.block(bi * 4, (bi + 1) * 4, bj * 4, (bj + 1) * 4).nnz();
    }
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(CsrMatrix, CastPreservesPattern) {
  const auto a = testing::random_sparse<double>(8, 0.4, 13);
  const auto f = a.cast<float>();
  EXPECT_EQ(f.nnz(), a.nnz());
  for (index_t e = 0; e < a.nnz(); ++e) {
    EXPECT_FLOAT_EQ(f.val_at(e), static_cast<float>(a.val_at(e)));
  }
}

TEST(CsrMatrix, EmptyMatrix) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 4;
  const auto csr = CsrMatrix<double>::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.transposed().nnz(), 0);
  EXPECT_EQ(csr.block(0, 4, 0, 4).nnz(), 0);
}

}  // namespace
}  // namespace agnn
