// Fused Psi kernels (Sections 6.1–6.2).
//
// Each model's attention matrix Psi(A, H) is, written naively, a dense
// n x n "virtual" matrix sampled by the adjacency structure. The fused
// kernels below iterate over the non-zeros of A and compute the sampled
// virtual values in place — the SDDMM-like kernels the paper's fusing pass
// generates from the execution DAG. Nothing of size n x n is ever stored.
//
// The *_unfused reference implementations (which do materialize the dense
// intermediate) live in reference_impls.hpp and exist only for tests and
// for the fusion-ablation benchmark.
//
// Every kernel has an out-parameter overload writing into caller-provided
// (typically Workspace-pooled) storage; by-value signatures are wrappers.
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "obs/obs_scope.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/sparse_core.hpp"
#include "tensor/sparse_ops.hpp"

namespace agnn {

// VA (vanilla attention):  Psi = A ⊙ (H H^T).
// One fused pass: Psi_ij = A_ij * <h_i, h_j>. This is exactly SDDMM with
// X = Y = H, fusing the Hadamard filter into the sampling.
template <typename T>
void psi_va(const CsrMatrix<T>& a, const DenseMatrix<T>& h, CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("psi_va",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)));
  sddmm(a, h, h, out);
}

template <typename T>
CsrMatrix<T> psi_va(const CsrMatrix<T>& a, const DenseMatrix<T>& h) {
  return sddmm(a, h, h);
}

// AGNN:  Psi = A ⊙ (H H^T ⊘ n n^T),  n_i = ||h_i||_2.
// The outer product n n^T stays virtual: the fused kernel divides each
// sampled dot product by n_i * n_j on the fly (cosine similarity per edge).
// An all-zero feature row makes n_i * n_j vanish; its dot products are then
// exactly zero too (Cauchy-Schwarz: |dot| <= n_i * n_j), so guarding the
// division on denom > 0 yields 0 for degenerate edges and leaves every
// non-degenerate edge's arithmetic untouched. (An earlier eps-clamp variant
// silently flattened edges whose norm product underflows below the smallest
// normal — subnormal-magnitude features — to ~0 while the unfused reference
// still recovered the cosine; found by the differential harness, pinned in
// DiffRegression.AgnnSubnormalNormProductKeepsCosine.)
template <typename T>
void psi_agnn(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
              std::span<const T> norms, CsrMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("psi_agnn",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)) +
                        2 * static_cast<std::uint64_t>(a.nnz()) * sizeof(T));
  AGNN_ASSERT(a.rows() == h.rows() && a.cols() == h.rows(),
              "psi_agnn: A must be n x n matching H's rows");
  AGNN_ASSERT(static_cast<index_t>(norms.size()) == h.rows(), "psi_agnn: norms size");
  detail::edge_dot_rows(
      a, h, h, out,
      [av = a.vals().data(), cols = a.col_idx().data(), norms = norms.data()](
          index_t i, index_t t, T dot) {
        const T denom = norms[i] * norms[cols[t]];
        return denom > T(0) ? av[t] * (dot / denom) : T(0);
      });
}

template <typename T>
void psi_agnn(const CsrMatrix<T>& a, const DenseMatrix<T>& h, CsrMatrix<T>& out) {
  const std::vector<T> norms = row_l2_norms(h);
  psi_agnn(a, h, std::span<const T>(norms), out);
}

template <typename T>
CsrMatrix<T> psi_agnn(const CsrMatrix<T>& a, const DenseMatrix<T>& h) {
  CsrMatrix<T> out;
  psi_agnn(a, h, out);
  return out;
}

// GAT forward needs both the pre-activation scores C (for the LeakyReLU
// derivative in backward) and the softmax-normalized attention Psi.
template <typename T>
struct GatPsi {
  CsrMatrix<T> scores_pre;  // C_ij = s1_i + s2_j at the edges (pre-activation)
  CsrMatrix<T> psi;         // sm(A ⊙ LeakyReLU(C))
};

// GAT:  Psi = sm( A ⊙ LeakyReLU( s1 1^T + 1 s2^T ) ),
// where s1 = H' a1 and s2 = H' a2 (H' = H W, a = [a1; a2] — the split of
// the concatenation trick, Figure 2). The rank-1 virtual matrix
// s1 1^T + 1 s2^T is sampled at the edges; the softmax is the graph softmax
// of Section 4.2, fused into the same sparse pattern.
template <typename T>
void psi_gat(const CsrMatrix<T>& a, std::span<const T> s1, std::span<const T> s2,
             T leaky_slope, CsrMatrix<T>& scores_pre, CsrMatrix<T>& psi) {
  AGNN_KERNEL_SCOPE("psi_gat",
                    2 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(a.nnz()),
                            static_cast<std::uint64_t>(a.rows()), sizeof(T),
                            sizeof(index_t)) +
                        2 * static_cast<std::uint64_t>(a.nnz()) * sizeof(T));
  AGNN_ASSERT(static_cast<index_t>(s1.size()) == a.rows(), "psi_gat: s1 size");
  AGNN_ASSERT(static_cast<index_t>(s2.size()) == a.cols(), "psi_gat: s2 size");
  AGNN_ASSERT(&scores_pre != &psi, "psi_gat: outputs must be distinct");
  // Both outputs take A's structure without copying it; the row loop
  // copies each row's column indices as it writes the row's values.
  index_t* pre_cols = scores_pre.adopt_structure(a).data();
  index_t* psi_cols = psi.adopt_structure(a).data();
  auto pre = scores_pre.vals_mutable();
  auto act = psi.vals_mutable();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows(); ++i) {
    const T s1i = s1[static_cast<std::size_t>(i)];
    for (index_t t = a.row_begin(i); t < a.row_end(i); ++t) {
      const T c = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
      pre_cols[t] = psi_cols[t] = a.col_at(t);
      pre[static_cast<std::size_t>(t)] = c;
      const T lrelu = c > T(0) ? c : leaky_slope * c;
      act[static_cast<std::size_t>(t)] = a.val_at(t) * lrelu;
    }
  }
  row_softmax_inplace(psi);
}

template <typename T>
void psi_gat(const CsrMatrix<T>& a, std::span<const T> s1, std::span<const T> s2,
             T leaky_slope, GatPsi<T>& out) {
  psi_gat(a, s1, s2, leaky_slope, out.scores_pre, out.psi);
}

template <typename T>
GatPsi<T> psi_gat(const CsrMatrix<T>& a, std::span<const T> s1,
                  std::span<const T> s2, T leaky_slope) {
  GatPsi<T> out;
  psi_gat(a, s1, s2, leaky_slope, out);
  return out;
}

// Fully fused VA layer aggregation: out = (A ⊙ H H^T) * X computed in a
// single pass over the non-zeros, never storing Psi. This is the deepest
// fusion the execution DAG admits for VA (SDDMM fused into the following
// SpMM) and is benchmarked against the two-kernel pipeline.
template <typename T>
void fused_va_aggregate(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                        const DenseMatrix<T>& x, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("fused_va_aggregate",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)) +
                        (static_cast<std::uint64_t>(a.nnz()) +
                         static_cast<std::uint64_t>(a.rows())) *
                            static_cast<std::uint64_t>(x.cols()) * sizeof(T));
  AGNN_ASSERT(a.rows() == h.rows() && a.cols() == h.rows(), "fused_va: shape");
  AGNN_ASSERT(a.cols() == x.rows(), "fused_va: aggregation input shape");
  AGNN_ASSERT(&out != &h && &out != &x, "fused_va: output cannot alias an input");
  const index_t n = a.rows(), k = h.cols(), kx = x.cols();
  const std::size_t max_row = static_cast<std::size_t>(a.max_row_nnz());
  const index_t* cols = a.col_idx().data();
  const T* av = a.vals().data();
  out.resize(n, kx);
  detail::with_sparse_core([&](auto core) {
#pragma omp parallel
    {
      // The row's scores, A_ij <h_i, h_j>, then the aggregation over them.
      T* scores = detail::thread_scratch<T>(max_row);
#pragma omp for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        const index_t b = a.row_begin(i), e = a.row_end(i);
        core.edge_dots(h.data() + i * k, h.data(), k, cols, b, e,
                       [scores, av, b](index_t t, T dot) { scores[t - b] = dot * av[t]; });
        core.aggregate(x.data(), kx, cols, b, e,
                       [scores, b](index_t t) { return scores[t - b]; },
                       out.data() + i * kx, false);
      }
    }
  });
}

template <typename T>
DenseMatrix<T> fused_va_aggregate(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                                  const DenseMatrix<T>& x) {
  DenseMatrix<T> out;
  fused_va_aggregate(a, h, x, out);
  return out;
}

// Fully fused GAT layer aggregation: out = sm(A ⊙ LeakyReLU(s1 1^T + 1 s2^T)) * X
// with per-row score buffers only (O(max row nnz) scratch per thread).
template <typename T>
void fused_gat_aggregate(const CsrMatrix<T>& a, std::span<const T> s1,
                         std::span<const T> s2, T leaky_slope,
                         const DenseMatrix<T>& x, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("fused_gat_aggregate",
                    obs::csr_pass_bytes(static_cast<std::uint64_t>(a.nnz()),
                                        static_cast<std::uint64_t>(a.rows()),
                                        sizeof(T), sizeof(index_t)) +
                        2 * static_cast<std::uint64_t>(a.nnz()) * sizeof(T) +
                        (static_cast<std::uint64_t>(a.nnz()) +
                         static_cast<std::uint64_t>(a.rows())) *
                            static_cast<std::uint64_t>(x.cols()) * sizeof(T));
  AGNN_ASSERT(a.cols() == x.rows(), "fused_gat: aggregation input shape");
  AGNN_ASSERT(&out != &x, "fused_gat: output cannot alias an input");
  const index_t n = a.rows(), kx = x.cols();
  const std::size_t max_row = static_cast<std::size_t>(a.max_row_nnz());
  const index_t* cols = a.col_idx().data();
  out.resize(n, kx);
  detail::with_sparse_core([&](auto core) {
#pragma omp parallel
    {
      // Sized once to the longest row, so a thread's buffer never grows with
      // the rows it happens to draw.
      T* scores = detail::thread_scratch<T>(max_row);
#pragma omp for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        const index_t b = a.row_begin(i), e = a.row_end(i);
        T inv = T(0);
        if (b != e) {
          const T s1i = s1[static_cast<std::size_t>(i)];
          T mx = -std::numeric_limits<T>::infinity();
          for (index_t t = b; t < e; ++t) {
            const T c = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
            const T lrelu = (c > T(0) ? c : leaky_slope * c) * a.val_at(t);
            scores[t - b] = lrelu;
            mx = std::max(mx, lrelu);
          }
          T sum = T(0);
          for (index_t t = b; t < e; ++t) {
            const T ex = std::exp(scores[t - b] - mx);
            scores[t - b] = ex;
            sum += ex;
          }
          inv = T(1) / sum;
        }
        // An empty row still gets its zeros from the tile.
        core.aggregate(x.data(), kx, cols, b, e,
                       [scores, b, inv](index_t t) { return scores[t - b] * inv; },
                       out.data() + i * kx, false);
      }
    }
  });
}

template <typename T>
DenseMatrix<T> fused_gat_aggregate(const CsrMatrix<T>& a, std::span<const T> s1,
                                   std::span<const T> s2, T leaky_slope,
                                   const DenseMatrix<T>& x) {
  DenseMatrix<T> out;
  fused_gat_aggregate(a, s1, s2, leaky_slope, x, out);
  return out;
}

}  // namespace agnn
