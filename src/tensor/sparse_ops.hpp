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

#include <cmath>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "obs/obs_scope.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/schedule.hpp"

namespace agnn {

// SDDMM (Table 2): out has the sparsity pattern of `pattern` and values
//   out(i,j) = pattern(i,j) * <x_i, y_j>
// i.e. the dense product X Y^T sampled at the non-zeros, scaled by the
// sampling matrix's own values (the Hadamard with A in the formulations).
template <typename T>
void sddmm(const CsrMatrix<T>& pattern, const DenseMatrix<T>& x,
           const DenseMatrix<T>& y, CsrMatrix<T>& out,
           const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("sddmm",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(pattern.nnz()),
                        static_cast<std::uint64_t>(pattern.rows()),
                        static_cast<std::uint64_t>(x.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(pattern.rows() == x.rows(), "sddmm: row dimension mismatch");
  AGNN_ASSERT(pattern.cols() == y.rows(), "sddmm: col dimension mismatch");
  AGNN_ASSERT(x.cols() == y.cols(), "sddmm: inner dimension mismatch");
  if (&out != &pattern) out = pattern;
  const index_t k = x.cols();
  auto v = out.vals_mutable();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(pattern, sched, owned);
  detail::scheduled_rows(*sched, pattern, [&](index_t i, index_t b, index_t e) {
    const T* xi = x.data() + i * k;
    for (index_t t = b; t < e; ++t) {
      const index_t j = pattern.col_at(t);
      const T* yj = y.data() + j * k;
      T acc = T(0);
      for (index_t g = 0; g < k; ++g) acc += xi[g] * yj[g];
      v[static_cast<std::size_t>(t)] = pattern.val_at(t) * acc;
    }
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
                      const DenseMatrix<T>& y, CsrMatrix<T>& out,
                      const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("sddmm_unweighted",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(pattern.nnz()),
                        static_cast<std::uint64_t>(pattern.rows()),
                        static_cast<std::uint64_t>(x.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(pattern.rows() == x.rows(), "sddmm: row dimension mismatch");
  AGNN_ASSERT(pattern.cols() == y.rows(), "sddmm: col dimension mismatch");
  AGNN_ASSERT(x.cols() == y.cols(), "sddmm: inner dimension mismatch");
  if (&out != &pattern) out = pattern;
  const index_t k = x.cols();
  auto v = out.vals_mutable();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(pattern, sched, owned);
  detail::scheduled_rows(*sched, pattern, [&](index_t i, index_t b, index_t e) {
    const T* xi = x.data() + i * k;
    for (index_t t = b; t < e; ++t) {
      const index_t j = pattern.col_at(t);
      const T* yj = y.data() + j * k;
      T acc = T(0);
      for (index_t g = 0; g < k; ++g) acc += xi[g] * yj[g];
      v[static_cast<std::size_t>(t)] = acc;
    }
  });
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
// Split rows sum per piece, then fold the piece partials in fixed order.
template <typename T>
void sparse_row_sums(const CsrMatrix<T>& a, std::vector<T>& s,
                     const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("sparse_row_sums",
                    obs::csr_pass_bytes(static_cast<std::uint64_t>(a.nnz()),
                                        static_cast<std::uint64_t>(a.rows()),
                                        sizeof(T), sizeof(index_t)) +
                        static_cast<std::uint64_t>(a.rows()) * sizeof(T));
  s.resize(static_cast<std::size_t>(a.rows()));
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  if (sched->row_parallel()) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < a.rows(); ++i) {
      T acc = T(0);
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) acc += a.val_at(e);
      s[static_cast<std::size_t>(i)] = acc;
    }
    return;
  }
  const auto& cs = sched->chunks();
  const auto& srs = sched->split_rows();
  const index_t nc = static_cast<index_t>(cs.size());
  const index_t nsr = sched->num_split_rows();
  T* part = detail::schedule_arena<T>(
      static_cast<std::size_t>(sched->num_pieces()));
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 1)
    for (index_t ci = 0; ci < nc; ++ci) {
      const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
      for (index_t i = c.row_begin; i < c.row_end; ++i) {
        const index_t b = std::max(a.row_begin(i), c.edge_begin);
        const index_t e = std::min(a.row_end(i), c.edge_end);
        T acc = T(0);
        for (index_t t = b; t < e; ++t) acc += a.val_at(t);
        if (c.piece >= 0) {
          part[c.piece] = acc;
        } else {
          s[static_cast<std::size_t>(i)] = acc;
        }
      }
    }
#pragma omp for schedule(static)
    for (index_t si = 0; si < nsr; ++si) {
      const KernelSchedule::SplitRow& sr = srs[static_cast<std::size_t>(si)];
      T acc = T(0);
      for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) acc += part[p];
      s[static_cast<std::size_t>(sr.row)] = acc;
    }
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
// dist-vs-sequential tests rely on. Small inputs keep the serial path: no
// partial-buffer allocation, and below the threshold the merge would cost
// more than the sums.
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
  if (omp_get_max_threads() > 1 && a.nnz() >= kParallelNnzThreshold) {
    std::vector<T> partials;
    int teams = 1;
#pragma omp parallel
    {
#pragma omp single
      {
        teams = omp_get_num_threads();
        partials.assign(static_cast<std::size_t>(teams) * cols, T(0));
      }  // implicit barrier: partials is sized before any thread writes
      T* mine = partials.data() +
                static_cast<std::size_t>(omp_get_thread_num()) * cols;
#pragma omp for schedule(static)
      for (index_t i = 0; i < a.rows(); ++i) {
        for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
          mine[static_cast<std::size_t>(a.col_at(e))] += a.val_at(e);
        }
      }  // implicit barrier: all partials complete before the merge
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
void row_softmax_inplace(CsrMatrix<T>& x, const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("row_softmax",
                    2 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(x.nnz()),
                            static_cast<std::uint64_t>(x.rows()), sizeof(T),
                            sizeof(index_t)));
  auto v = x.vals_mutable();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(x, sched, owned);
  if (sched->row_parallel()) {
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
    return;
  }
  // Chunked online softmax. Whole rows run the legacy per-row arithmetic
  // (bitwise identical to RowParallel). Split rows go in three phases:
  //   1. each piece computes its local max mx_p and sum_p = sum exp(v - mx_p)
  //      without writing anything;
  //   2. the row max is the max of the piece maxes, and the row denominator
  //      is sum_p * exp(mx_p - mx) folded in fixed piece order;
  //   3. each piece writes v = exp(v - mx) / denom.
  // Phase 2's fold order and phase 1/3's per-piece arithmetic depend only on
  // the schedule, so the result is bitwise reproducible across runs and
  // thread counts. The piece holding the row max contributes
  // sum_p * exp(0) >= 1 to the denominator, so the division is safe.
  const auto& cs = sched->chunks();
  const auto& ps = sched->pieces();
  const auto& srs = sched->split_rows();
  const index_t nc = static_cast<index_t>(cs.size());
  const index_t np = sched->num_pieces();
  const index_t nsr = sched->num_split_rows();
  // pstat[2p] = piece max, pstat[2p+1] = piece expsum;
  // rv[2s] = row max, rv[2s+1] = 1 / row denominator.
  T* pstat = detail::schedule_arena<T>(2 * static_cast<std::size_t>(np));
  T* rv = detail::schedule_arena<T, 2>(2 * static_cast<std::size_t>(nsr));
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 1)
    for (index_t ci = 0; ci < nc; ++ci) {
      const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
      for (index_t i = c.row_begin; i < c.row_end; ++i) {
        const index_t b = std::max(x.row_begin(i), c.edge_begin);
        const index_t e = std::min(x.row_end(i), c.edge_end);
        if (b == e) continue;
        T mx = v[static_cast<std::size_t>(b)];
        for (index_t t = b + 1; t < e; ++t) {
          mx = std::max(mx, v[static_cast<std::size_t>(t)]);
        }
        if (c.piece >= 0) {
          T sum = T(0);
          for (index_t t = b; t < e; ++t) {
            sum += std::exp(v[static_cast<std::size_t>(t)] - mx);
          }
          pstat[2 * c.piece] = mx;
          pstat[2 * c.piece + 1] = sum;
        } else {
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
    }
#pragma omp for schedule(static)
    for (index_t si = 0; si < nsr; ++si) {
      const KernelSchedule::SplitRow& sr = srs[static_cast<std::size_t>(si)];
      T mx = pstat[2 * sr.piece_begin];
      for (index_t p = sr.piece_begin + 1; p < sr.piece_end; ++p) {
        mx = std::max(mx, pstat[2 * p]);
      }
      T denom = T(0);
      for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) {
        denom += pstat[2 * p + 1] * std::exp(pstat[2 * p] - mx);
      }
      rv[2 * si] = mx;
      rv[2 * si + 1] = T(1) / denom;
    }
#pragma omp for schedule(dynamic, 1)
    for (index_t pi = 0; pi < np; ++pi) {
      const KernelSchedule::Piece& p = ps[static_cast<std::size_t>(pi)];
      const T mx = rv[2 * p.split];
      const T inv = rv[2 * p.split + 1];
      for (index_t t = p.edge_begin; t < p.edge_end; ++t) {
        v[static_cast<std::size_t>(t)] =
            std::exp(v[static_cast<std::size_t>(t)] - mx) * inv;
      }
    }
  }
}

template <typename T>
void row_softmax(const CsrMatrix<T>& x, CsrMatrix<T>& out,
                 const KernelSchedule* sched = nullptr) {
  if (&out != &x) out = x;
  row_softmax_inplace(out, sched);
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
                          CsrMatrix<T>& dx, const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("row_softmax_backward",
                    3 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(s.nnz()),
                            static_cast<std::uint64_t>(s.rows()), sizeof(T),
                            sizeof(index_t)));
  AGNN_ASSERT(s.same_pattern(ds), "softmax backward: patterns must match");
  if (&dx != &s && &dx != &ds) dx = s;
  auto v = dx.vals_mutable();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(s, sched, owned);
  if (sched->row_parallel()) {
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
    return;
  }
  // Split rows: piece-local dots, folded in fixed piece order, then a pure
  // per-edge write phase (safe even when dx aliases s or ds — the dot is
  // already computed and each edge reads before it writes).
  const auto& cs = sched->chunks();
  const auto& ps = sched->pieces();
  const auto& srs = sched->split_rows();
  const index_t nc = static_cast<index_t>(cs.size());
  const index_t np = sched->num_pieces();
  const index_t nsr = sched->num_split_rows();
  T* pdot = detail::schedule_arena<T>(static_cast<std::size_t>(np));
  T* rdot = detail::schedule_arena<T, 2>(static_cast<std::size_t>(nsr));
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 1)
    for (index_t ci = 0; ci < nc; ++ci) {
      const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
      for (index_t i = c.row_begin; i < c.row_end; ++i) {
        const index_t b = std::max(s.row_begin(i), c.edge_begin);
        const index_t e = std::min(s.row_end(i), c.edge_end);
        T dot = T(0);
        for (index_t t = b; t < e; ++t) dot += s.val_at(t) * ds.val_at(t);
        if (c.piece >= 0) {
          pdot[c.piece] = dot;
        } else {
          for (index_t t = b; t < e; ++t) {
            v[static_cast<std::size_t>(t)] = s.val_at(t) * (ds.val_at(t) - dot);
          }
        }
      }
    }
#pragma omp for schedule(static)
    for (index_t si = 0; si < nsr; ++si) {
      const KernelSchedule::SplitRow& sr = srs[static_cast<std::size_t>(si)];
      T dot = T(0);
      for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) dot += pdot[p];
      rdot[si] = dot;
    }
#pragma omp for schedule(dynamic, 1)
    for (index_t pi = 0; pi < np; ++pi) {
      const KernelSchedule::Piece& p = ps[static_cast<std::size_t>(pi)];
      const T dot = rdot[p.split];
      for (index_t t = p.edge_begin; t < p.edge_end; ++t) {
        v[static_cast<std::size_t>(t)] = s.val_at(t) * (ds.val_at(t) - dot);
      }
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
                     std::span<const T> scale_col, CsrMatrix<T>& out,
                     const KernelSchedule* sched = nullptr) {
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
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  detail::scheduled_rows(*sched, a, [&](index_t i, index_t b, index_t e) {
    const T ri = scale_row[static_cast<std::size_t>(i)];
    for (index_t t = b; t < e; ++t) {
      v[static_cast<std::size_t>(t)] *=
          ri * scale_col[static_cast<std::size_t>(a.col_at(t))];
    }
  });
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
