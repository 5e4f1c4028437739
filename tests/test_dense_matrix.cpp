// Unit tests for DenseMatrix<T>: construction, element access, slicing,
// initialization, and casting.
#include <gtest/gtest.h>

#include "tensor/dense_matrix.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

TEST(DenseMatrix, DefaultConstructedIsEmpty) {
  DenseMatrix<float> m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(DenseMatrix, ConstructWithInitValue) {
  DenseMatrix<double> m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(m(i, j), 2.5);
  }
}

TEST(DenseMatrix, ConstructFromVector) {
  DenseMatrix<int> m(2, 2, std::vector<int>{1, 2, 3, 4});
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 1), 2);
  EXPECT_EQ(m(1, 0), 3);
  EXPECT_EQ(m(1, 1), 4);
}

TEST(DenseMatrix, ConstructFromWrongSizeVectorThrows) {
  EXPECT_THROW(DenseMatrix<int>(2, 2, std::vector<int>{1, 2, 3}), std::logic_error);
}

TEST(DenseMatrix, OutOfRangeAccessThrows) {
  DenseMatrix<float> m(2, 2);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 2), std::logic_error);
  EXPECT_THROW(m(-1, 0), std::logic_error);
}

TEST(DenseMatrix, RowSpanIsContiguousView) {
  DenseMatrix<float> m(3, 2);
  m(1, 0) = 5.0f;
  m(1, 1) = 6.0f;
  auto r = m.row(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_FLOAT_EQ(r[0], 5.0f);
  EXPECT_FLOAT_EQ(r[1], 6.0f);
  r[0] = 7.0f;  // mutations visible through the matrix
  EXPECT_FLOAT_EQ(m(1, 0), 7.0f);
}

TEST(DenseMatrix, FillAndSetZero) {
  DenseMatrix<double> m(4, 4, 1.0);
  m.fill(3.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 3.0);
  m.set_zero();
  EXPECT_DOUBLE_EQ(m(2, 2), 0.0);
}

TEST(DenseMatrix, GlorotInitIsBoundedAndDeterministic) {
  Rng rng1(7), rng2(7);
  DenseMatrix<double> a(20, 30), b(20, 30);
  a.fill_glorot(rng1);
  b.fill_glorot(rng2);
  const double limit = std::sqrt(6.0 / 50.0);
  bool any_nonzero = false;
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a.data()[i]), limit);
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
    any_nonzero |= a.data()[i] != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(DenseMatrix, SliceRowsExtractsBlock) {
  DenseMatrix<int> m(4, 2, std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8});
  auto s = m.slice_rows(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s(0, 0), 3);
  EXPECT_EQ(s(1, 1), 6);
}

TEST(DenseMatrix, SliceRowsFullAndEmpty) {
  DenseMatrix<int> m(3, 1, std::vector<int>{1, 2, 3});
  EXPECT_EQ(m.slice_rows(0, 3), m);
  EXPECT_EQ(m.slice_rows(1, 1).rows(), 0);
}

TEST(DenseMatrix, CastConvertsElementwise) {
  DenseMatrix<double> m(2, 2, std::vector<double>{1.5, 2.5, 3.5, 4.5});
  auto f = m.cast<float>();
  EXPECT_FLOAT_EQ(f(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(f(1, 1), 4.5f);
}

TEST(DenseMatrix, EqualityComparesShapeAndValues) {
  DenseMatrix<int> a(2, 2, 1), b(2, 2, 1), c(2, 2, 2), d(1, 4, 1);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(DenseMatrix, SameShape) {
  DenseMatrix<float> a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

}  // namespace
}  // namespace agnn
