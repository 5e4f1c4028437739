// Sparse building blocks: SDDMM, Hadamard ops on a shared sparsity pattern,
// the global graph-softmax of Section 4.2, and row/column reductions.
//
// Everything here operates on the non-zeros of a CSR pattern only — the
// dense n x n matrices of the formulations stay virtual (Section 6.1).
//
// Every kernel has an out-parameter overload that rebuilds `out` in place;
// within capacity (vector copy-assignment reuses storage) this allocates
// nothing, which is what the Workspace pool relies on. Out-parameters may
// alias the sparse inputs unless noted — the value loops read each element
// before writing it.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "obs/obs_scope.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/sparse_core.hpp"

namespace agnn {

namespace detail {

struct SparseColSumsScratch;

// The row loop of the dot kernels (sddmm, sddmm_unweighted, psi_agnn): `out`
// takes `pattern`'s structure, and each edge t of row i gets
// value(i, t, <x_i, y_{col(t)}>) through the sparse core's edge-lane dot,
// its column index copied as the row is read. `value` reads any pattern
// value it needs before the write, so `out` may be `pattern` itself.
template <typename T, typename Value>
void edge_dot_rows(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
                   const DenseMatrix<T>& y, CsrMatrix<T>& out, Value value) {
  index_t* out_cols = out.adopt_structure(pattern).data();
  T* out_vals = out.vals_mutable().data();
  const index_t* cols = pattern.col_idx().data();
  const index_t k = x.cols();
  with_sparse_core([&](auto core) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < pattern.rows(); ++i) {
      core.edge_dots(x.data() + i * k, y.data(), k, cols, pattern.row_begin(i),
                     pattern.row_end(i),
                     [out_cols, out_vals, cols, value, i](index_t t, T dot) {
                       out_cols[t] = cols[t];
                       out_vals[t] = value(i, t, dot);
                     });
    }
  });
}

}  // namespace detail

// SDDMM (Table 2): out has the sparsity pattern of `pattern` and values
//   out(i,j) = pattern(i,j) * <x_i, y_j>
// i.e. the dense product X Y^T sampled at the non-zeros, scaled by the
// sampling matrix's own values (the Hadamard with A in the formulations).
template <typename T>
void sddmm(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
           const DenseMatrix<T>& y, CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("sddmm",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(pattern.nnz()),
                        static_cast<std::uint64_t>(pattern.rows()),
                        static_cast<std::uint64_t>(x.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(pattern.rows() == x.rows(), "sddmm: row dimension mismatch");
  AGNN_ASSERT(pattern.cols() == y.rows(), "sddmm: col dimension mismatch");
  AGNN_ASSERT(x.cols() == y.cols(), "sddmm: inner dimension mismatch");
  detail::edge_dot_rows(pattern, x, y, out,
                        [pv = pattern.vals().data()](index_t, index_t t, T dot) {
                          return pv[t] * dot;
                        });
}

template <typename T>
CsrMatrix<T> sddmm(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
                   const DenseMatrix<T>& y) {
  CsrMatrix<T> out;
  sddmm(pattern, x, y, out);
  return out;
}

// SDDMM with the sampling values treated as 1: out(i,j) = <x_i, y_j> on the
// pattern of `pattern`. Equivalent to sddmm(pattern.with_values(1), x, y)
// but never materializes the all-ones copy — the GAT backward pass calls
// this every step.
template <typename T>
void sddmm_unweighted(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
                      const DenseMatrix<T>& y, CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("sddmm_unweighted",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(pattern.nnz()),
                        static_cast<std::uint64_t>(pattern.rows()),
                        static_cast<std::uint64_t>(x.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(pattern.rows() == x.rows(), "sddmm: row dimension mismatch");
  AGNN_ASSERT(pattern.cols() == y.rows(), "sddmm: col dimension mismatch");
  AGNN_ASSERT(x.cols() == y.cols(), "sddmm: inner dimension mismatch");
  detail::edge_dot_rows(pattern, x, y, out, [](index_t, index_t, T dot) { return dot; });
}

template <typename T>
CsrMatrix<T> sddmm_unweighted(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
                              const DenseMatrix<T>& y) {
  CsrMatrix<T> out;
  sddmm_unweighted(pattern, x, y, out);
  return out;
}

// Element-wise product of two sparse matrices with identical patterns.
template <typename T>
void hadamard_same_pattern(const CsrMatrix<T>& a, const CsrMatrix<T>& b,
                           CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("hadamard_same_pattern",
                    3 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(a.nnz()),
                            static_cast<std::uint64_t>(a.rows()), sizeof(T),
                            sizeof(index_t)));
  AGNN_ASSERT(a.same_pattern(b), "hadamard: patterns must match");
  if (&out != &a && &out != &b) out = a;
  auto v = out.vals_mutable();
  const auto av = a.vals();
  const auto bv = b.vals();
#pragma omp parallel for schedule(static)
  for (index_t e = 0; e < a.nnz(); ++e) {
    v[static_cast<std::size_t>(e)] =
        av[static_cast<std::size_t>(e)] * bv[static_cast<std::size_t>(e)];
  }
}

template <typename T>
CsrMatrix<T> hadamard_same_pattern(const CsrMatrix<T>& a, const CsrMatrix<T>& b) {
  CsrMatrix<T> out;
  hadamard_same_pattern(a, b, out);
  return out;
}

// Apply a scalar function to every stored value (exp, LeakyReLU, ...).
template <typename T, typename F>
void map_values(const CsrMatrix<T>& a, F&& f, CsrMatrix<T>& out) {
  if (&out != &a) out = a;
  auto v = out.vals_mutable();
#pragma omp parallel for schedule(static)
  for (index_t e = 0; e < a.nnz(); ++e) {
    v[static_cast<std::size_t>(e)] = f(v[static_cast<std::size_t>(e)]);
  }
}

template <typename T, typename F>
CsrMatrix<T> map_values(const CsrMatrix<T>& a, F&& f) {
  CsrMatrix<T> out;
  map_values(a, f, out);
  return out;
}

// sum(X) = X * 1 over the sparse pattern: per-row sum of stored values.
template <typename T>
void sparse_row_sums(const CsrMatrix<T>& a, std::vector<T>& s) {
  AGNN_KERNEL_SCOPE("sparse_row_sums",
                    obs::csr_pass_bytes(static_cast<std::uint64_t>(a.nnz()),
                                        static_cast<std::uint64_t>(a.rows()),
                                        sizeof(T), sizeof(index_t)) +
                        static_cast<std::uint64_t>(a.rows()) * sizeof(T));
  s.resize(static_cast<std::size_t>(a.rows()));
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows(); ++i) {
    T acc = T(0);
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) acc += a.val_at(e);
    s[static_cast<std::size_t>(i)] = acc;
  }
}

template <typename T>
std::vector<T> sparse_row_sums(const CsrMatrix<T>& a) {
  std::vector<T> s;
  sparse_row_sums(a, s);
  return s;
}

// sum^T(X) = 1^T * X: per-column sum of stored values.
//
// Rows cannot be split across threads naively (two rows may hit the same
// column), so the parallel path accumulates into per-thread partial vectors
// and merges them column-parallel. The row partition uses a *static*
// schedule so each thread sums a deterministic row range — the result is
// bitwise reproducible run to run, which the differential harness and the
// dist-vs-sequential tests rely on. The partials live in the calling
// thread's scratch, so a steady-state call allocates nothing. Small inputs
// keep the serial path: below the threshold the merge would cost more than
// the sums.
template <typename T>
void sparse_col_sums(const CsrMatrix<T>& a, std::vector<T>& s) {
  AGNN_KERNEL_SCOPE("sparse_col_sums",
                    obs::csr_pass_bytes(static_cast<std::uint64_t>(a.nnz()),
                                        static_cast<std::uint64_t>(a.rows()),
                                        sizeof(T), sizeof(index_t)) +
                        static_cast<std::uint64_t>(a.cols()) * sizeof(T));
  const std::size_t cols = static_cast<std::size_t>(a.cols());
  s.assign(cols, T(0));
#if defined(_OPENMP)
  constexpr index_t kParallelNnzThreshold = index_t(1) << 13;
  const int max_team = omp_get_max_threads();
  if (max_team > 1 && a.nnz() >= kParallelNnzThreshold) {
    T* partials = detail::thread_scratch<T, detail::SparseColSumsScratch>(
        static_cast<std::size_t>(max_team) * cols);
    int teams = 1;
#pragma omp parallel
    {
      const int tid = omp_get_thread_num();
      if (tid == 0) teams = omp_get_num_threads();
      T* mine = partials + static_cast<std::size_t>(tid) * cols;
      std::fill(mine, mine + cols, T(0));
#pragma omp for schedule(static)
      for (index_t i = 0; i < a.rows(); ++i) {
        for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
          mine[static_cast<std::size_t>(a.col_at(e))] += a.val_at(e);
        }
      }  // implicit barrier: all partials complete (and `teams` set) before the merge
#pragma omp for schedule(static)
      for (index_t j = 0; j < a.cols(); ++j) {
        T acc = T(0);
        for (int t = 0; t < teams; ++t) {
          acc += partials[static_cast<std::size_t>(t) * cols +
                          static_cast<std::size_t>(j)];
        }
        s[static_cast<std::size_t>(j)] = acc;
      }
    }
    return;
  }
#endif
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      s[static_cast<std::size_t>(a.col_at(e))] += a.val_at(e);
    }
  }
}

template <typename T>
std::vector<T> sparse_col_sums(const CsrMatrix<T>& a) {
  std::vector<T> s;
  sparse_col_sums(a, s);
  return s;
}

// Graph softmax (Section 4.2): sm(X) = exp(X) ⊘ rs_n(exp(X)), restricted to
// the non-zeros of X. Each row is exponentiated with the max-subtraction
// trick (a row-local shift cancels in the normalization but prevents
// overflow for large attention scores) and divided by its row sum.
// The replication rs_n stays virtual: only the n-vector of row sums exists.
template <typename T>
void row_softmax_inplace(CsrMatrix<T>& x) {
  AGNN_KERNEL_SCOPE("row_softmax",
                    2 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(x.nnz()),
                            static_cast<std::uint64_t>(x.rows()), sizeof(T),
                            sizeof(index_t)));
  auto v = x.vals_mutable();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < x.rows(); ++i) {
    const index_t b = x.row_begin(i), e = x.row_end(i);
    if (b == e) continue;
    T mx = v[static_cast<std::size_t>(b)];
    for (index_t t = b + 1; t < e; ++t) mx = std::max(mx, v[static_cast<std::size_t>(t)]);
    T sum = T(0);
    for (index_t t = b; t < e; ++t) {
      const T ex = std::exp(v[static_cast<std::size_t>(t)] - mx);
      v[static_cast<std::size_t>(t)] = ex;
      sum += ex;
    }
    const T inv = T(1) / sum;
    for (index_t t = b; t < e; ++t) v[static_cast<std::size_t>(t)] *= inv;
  }
}

template <typename T>
void row_softmax(const CsrMatrix<T>& x, CsrMatrix<T>& out) {
  if (&out != &x) out = x;
  row_softmax_inplace(out);
}

template <typename T>
CsrMatrix<T> row_softmax(const CsrMatrix<T>& x) {
  CsrMatrix<T> out;
  row_softmax(x, out);
  return out;
}

// Backward of row_softmax. Given S = row_softmax(X) and dS = dL/dS (same
// pattern), returns dX with
//   dX(i,j) = S(i,j) * (dS(i,j) - sum_j' S(i,j') dS(i,j'))
// — the per-row softmax Jacobian applied without materializing it.
template <typename T>
void row_softmax_backward(const CsrMatrix<T>& s, const CsrMatrix<T>& ds,
                          CsrMatrix<T>& dx) {
  AGNN_KERNEL_SCOPE("row_softmax_backward",
                    3 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(s.nnz()),
                            static_cast<std::uint64_t>(s.rows()), sizeof(T),
                            sizeof(index_t)));
  AGNN_ASSERT(s.same_pattern(ds), "softmax backward: patterns must match");
  if (&dx != &s && &dx != &ds) dx = s;
  auto v = dx.vals_mutable();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < s.rows(); ++i) {
    T dot = T(0);
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      dot += s.val_at(e) * ds.val_at(e);
    }
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      v[static_cast<std::size_t>(e)] = s.val_at(e) * (ds.val_at(e) - dot);
    }
  }
}

template <typename T>
CsrMatrix<T> row_softmax_backward(const CsrMatrix<T>& s, const CsrMatrix<T>& ds) {
  CsrMatrix<T> dx;
  row_softmax_backward(s, ds, dx);
  return dx;
}

// out(i,j) = a(i,j) * scale_row(i) * scale_col(j): the virtual Hadamard
// division by an outer product (AGNN's ⊘ n n^T) with scale vectors already
// inverted by the caller.
template <typename T>
void scale_rows_cols(const CsrMatrix<T>& a, std::span<const T> scale_row,
                     std::span<const T> scale_col, CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("scale_rows_cols",
                    2 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(a.nnz()),
                            static_cast<std::uint64_t>(a.rows()), sizeof(T),
                            sizeof(index_t)) +
                        2 * static_cast<std::uint64_t>(a.nnz()) * sizeof(T));
  AGNN_ASSERT(static_cast<index_t>(scale_row.size()) == a.rows(), "row scale size");
  AGNN_ASSERT(static_cast<index_t>(scale_col.size()) == a.cols(), "col scale size");
  if (&out != &a) out = a;
  auto v = out.vals_mutable();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows(); ++i) {
    const T ri = scale_row[static_cast<std::size_t>(i)];
    for (index_t t = a.row_begin(i); t < a.row_end(i); ++t) {
      v[static_cast<std::size_t>(t)] *=
          ri * scale_col[static_cast<std::size_t>(a.col_at(t))];
    }
  }
}

template <typename T>
CsrMatrix<T> scale_rows_cols(const CsrMatrix<T>& a, std::span<const T> scale_row,
                             std::span<const T> scale_col) {
  CsrMatrix<T> out;
  scale_rows_cols(a, scale_row, scale_col, out);
  return out;
}

// X + X^T for a sparse matrix (the X_+ building block of Table 2, used by
// the VA backward pass N_+ = N + N^T). The result's pattern is the union.
template <typename T>
CsrMatrix<T> add_transpose(const CsrMatrix<T>& x) {
  AGNN_KERNEL_SCOPE("add_transpose",
                    4 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(x.nnz()),
                            static_cast<std::uint64_t>(x.rows()), sizeof(T),
                            sizeof(index_t)));
  AGNN_ASSERT(x.rows() == x.cols(), "add_transpose: matrix must be square");
  const CsrMatrix<T> xt = x.transposed();
  CooMatrix<T> coo = x.to_coo();
  const CooMatrix<T> coo_t = xt.to_coo();
  coo.rows.insert(coo.rows.end(), coo_t.rows.begin(), coo_t.rows.end());
  coo.cols.insert(coo.cols.end(), coo_t.cols.begin(), coo_t.cols.end());
  coo.vals.insert(coo.vals.end(), coo_t.vals.begin(), coo_t.vals.end());
  coo.sum_duplicates();
  return CsrMatrix<T>::from_coo(coo);
}

}  // namespace agnn
