// Shared helpers for the test suite: random tensors and graphs with fixed
// seeds, tolerant matrix comparison, bit patterns for bitwise comparison,
// header forging for decoder tests, and a scoped OpenMP team size.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace agnn::testing {

// The unsigned integer holding a float's or double's bit pattern, for
// bitwise comparisons: std::bit_cast<Bits<T>>(x).
template <typename T>
using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

// Pin the OpenMP team size for a scope (a no-op without OpenMP).
class ScopedThreads {
 public:
#if defined(_OPENMP)
  explicit ScopedThreads(int n) : prev_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~ScopedThreads() { omp_set_num_threads(prev_); }

 private:
  int prev_;
#else
  explicit ScopedThreads(int) {}
#endif
};

template <typename T>
DenseMatrix<T> random_dense(index_t rows, index_t cols, std::uint64_t seed,
                            double lo = -1.0, double hi = 1.0) {
  DenseMatrix<T> m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, lo, hi);
  return m;
}

// A random sparse square matrix with roughly `density` fraction of non-zero
// entries and uniform random values. Guaranteed at least one entry per row
// (so softmax rows are never empty).
template <typename T>
CsrMatrix<T> random_sparse(index_t n, double density, std::uint64_t seed,
                           bool binary = false) {
  Rng rng(seed);
  CooMatrix<T> coo;
  coo.n_rows = n;
  coo.n_cols = n;
  for (index_t i = 0; i < n; ++i) {
    bool any = false;
    for (index_t j = 0; j < n; ++j) {
      if (rng.next_double() < density) {
        coo.push_back(i, j, binary ? T(1) : static_cast<T>(rng.next_uniform(0.1, 1.0)));
        any = true;
      }
    }
    if (!any) {
      coo.push_back(i, rng.next_bounded(static_cast<std::uint64_t>(n)),
                    binary ? T(1) : static_cast<T>(rng.next_uniform(0.1, 1.0)));
    }
  }
  coo.sum_duplicates();
  return CsrMatrix<T>::from_coo(coo);
}

// A small undirected test graph built through the standard pipeline.
template <typename T>
graph::Graph<T> small_graph(index_t n, index_t m, std::uint64_t seed,
                            bool self_loops = true) {
  auto el = graph::generate_erdos_renyi_m(n, m, seed);
  graph::BuildOptions opt;
  opt.add_self_loops = self_loops;
  return graph::build_graph<T>(el, opt);
}

template <typename T>
void expect_matrix_near(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                        double tol, const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(static_cast<double>(a(i, j)), static_cast<double>(b(i, j)), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

template <typename T>
void expect_sparse_near(const CsrMatrix<T>& a, const CsrMatrix<T>& b, double tol,
                        const char* what = "") {
  ASSERT_TRUE(a.same_pattern(b)) << what << ": patterns differ";
  for (index_t e = 0; e < a.nnz(); ++e) {
    EXPECT_NEAR(static_cast<double>(a.val_at(e)), static_cast<double>(b.val_at(e)), tol)
        << what << " at nnz " << e;
  }
}

// Overwrite the int64 at byte `offset` of a file in place: forges a count in
// a file header so decoder tests can feed one that the data cannot back.
inline void patch_i64(const std::string& path, std::streamoff offset,
                      std::int64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << "cannot open " << path;
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(f.good()) << "cannot patch " << path;
}

}  // namespace agnn::testing
