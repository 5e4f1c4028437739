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
#include "tensor/sparse_ops.hpp"

namespace agnn {

// VA (vanilla attention):  Psi = A ⊙ (H H^T).
// One fused pass: Psi_ij = A_ij * <h_i, h_j>. This is exactly SDDMM with
// X = Y = H, fusing the Hadamard filter into the sampling.
template <typename T>
void psi_va(const CsrMatrix<T>& a, const DenseMatrix<T>& h, CsrMatrix<T>& out,
            const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("psi_va",
                    obs::sddmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)));
  sddmm(a, h, h, out, sched);
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
              std::span<const T> norms, CsrMatrix<T>& out,
              const KernelSchedule* sched = nullptr) {
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
  if (&out != &a) out = a;
  auto v = out.vals_mutable();
  const index_t k = h.cols();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  detail::scheduled_rows(*sched, a, [&](index_t i, index_t b, index_t e) {
    const T* hi = h.data() + i * k;
    const T ni = norms[static_cast<std::size_t>(i)];
    for (index_t t = b; t < e; ++t) {
      const index_t j = a.col_at(t);
      const T* hj = h.data() + j * k;
      T dot = T(0);
      for (index_t g = 0; g < k; ++g) dot += hi[g] * hj[g];
      const T denom = ni * norms[static_cast<std::size_t>(j)];
      v[static_cast<std::size_t>(t)] = denom > T(0) ? a.val_at(t) * (dot / denom) : T(0);
    }
  });
}

template <typename T>
void psi_agnn(const CsrMatrix<T>& a, const DenseMatrix<T>& h, CsrMatrix<T>& out,
              const KernelSchedule* sched = nullptr) {
  const std::vector<T> norms = row_l2_norms(h);
  psi_agnn(a, h, std::span<const T>(norms), out, sched);
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
             T leaky_slope, CsrMatrix<T>& scores_pre, CsrMatrix<T>& psi,
             const KernelSchedule* sched = nullptr) {
  AGNN_KERNEL_SCOPE("psi_gat",
                    2 * obs::csr_pass_bytes(
                            static_cast<std::uint64_t>(a.nnz()),
                            static_cast<std::uint64_t>(a.rows()), sizeof(T),
                            sizeof(index_t)) +
                        2 * static_cast<std::uint64_t>(a.nnz()) * sizeof(T));
  AGNN_ASSERT(static_cast<index_t>(s1.size()) == a.rows(), "psi_gat: s1 size");
  AGNN_ASSERT(static_cast<index_t>(s2.size()) == a.cols(), "psi_gat: s2 size");
  AGNN_ASSERT(&scores_pre != &psi, "psi_gat: outputs must be distinct");
  scores_pre = a;
  psi = a;
  auto pre = scores_pre.vals_mutable();
  auto act = psi.vals_mutable();
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  detail::scheduled_rows(*sched, a, [&](index_t i, index_t b, index_t e) {
    const T s1i = s1[static_cast<std::size_t>(i)];
    for (index_t t = b; t < e; ++t) {
      const T c = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
      pre[static_cast<std::size_t>(t)] = c;
      const T lrelu = c > T(0) ? c : leaky_slope * c;
      act[static_cast<std::size_t>(t)] = a.val_at(t) * lrelu;
    }
  });
  // psi copies a's pattern, so a's schedule applies to the softmax too.
  row_softmax_inplace(psi, sched);
}

template <typename T>
void psi_gat(const CsrMatrix<T>& a, std::span<const T> s1, std::span<const T> s2,
             T leaky_slope, GatPsi<T>& out, const KernelSchedule* sched = nullptr) {
  psi_gat(a, s1, s2, leaky_slope, out.scores_pre, out.psi, sched);
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
                        const DenseMatrix<T>& x, DenseMatrix<T>& out,
                        const KernelSchedule* sched = nullptr) {
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
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  out.resize(n, kx);
  if (sched->row_parallel()) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) {
      const T* hi = h.data() + i * k;
      T* oi = out.data() + i * kx;
      for (index_t g = 0; g < kx; ++g) oi[g] = T(0);
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
        const index_t j = a.col_at(e);
        const T* hj = h.data() + j * k;
        T score = T(0);
        for (index_t g = 0; g < k; ++g) score += hi[g] * hj[g];
        score *= a.val_at(e);
        const T* xj = x.data() + j * kx;
        for (index_t g = 0; g < kx; ++g) oi[g] += score * xj[g];
      }
    }
    return;
  }
  // Chunked: like spmm, with the sampled score computed per edge. Pieces of
  // split rows accumulate kx-wide partials, reduced in fixed piece order.
  const auto& cs = sched->chunks();
  const auto& srs = sched->split_rows();
  const index_t nc = static_cast<index_t>(cs.size());
  const index_t nsr = sched->num_split_rows();
  T* part = detail::schedule_arena<T>(
      static_cast<std::size_t>(sched->num_pieces()) * static_cast<std::size_t>(kx));
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 1)
    for (index_t ci = 0; ci < nc; ++ci) {
      const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
      for (index_t i = c.row_begin; i < c.row_end; ++i) {
        const index_t b = std::max(a.row_begin(i), c.edge_begin);
        const index_t e = std::min(a.row_end(i), c.edge_end);
        const T* hi = h.data() + i * k;
        T* oi = c.piece >= 0 ? part + c.piece * kx : out.data() + i * kx;
        for (index_t g = 0; g < kx; ++g) oi[g] = T(0);
        for (index_t t = b; t < e; ++t) {
          const index_t j = a.col_at(t);
          const T* hj = h.data() + j * k;
          T score = T(0);
          for (index_t g = 0; g < k; ++g) score += hi[g] * hj[g];
          score *= a.val_at(t);
          const T* xj = x.data() + j * kx;
          for (index_t g = 0; g < kx; ++g) oi[g] += score * xj[g];
        }
      }
    }
#pragma omp for schedule(static)
    for (index_t si = 0; si < nsr; ++si) {
      const KernelSchedule::SplitRow& sr = srs[static_cast<std::size_t>(si)];
      T* oi = out.data() + sr.row * kx;
      for (index_t g = 0; g < kx; ++g) oi[g] = T(0);
      for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) {
        const T* pp = part + p * kx;
        for (index_t g = 0; g < kx; ++g) oi[g] += pp[g];
      }
    }
  }
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
                         const DenseMatrix<T>& x, DenseMatrix<T>& out,
                         const KernelSchedule* sched = nullptr) {
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
  std::shared_ptr<const KernelSchedule> owned;
  sched = detail::resolve_schedule(a, sched, owned);
  out.resize(n, kx);
  out.fill(T(0));
  // The per-row score buffer: rows in whole-row chunks are never larger than
  // the split threshold, so this stays small and is reused across calls.
  auto row_body = [&](index_t i, index_t b, index_t e) {
    if (b == e) return;
    T* scores = detail::schedule_arena<T, 1>(static_cast<std::size_t>(e - b));
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
    const T inv = T(1) / sum;
    T* oi = out.data() + i * kx;
    for (index_t t = b; t < e; ++t) {
      const T w = scores[t - b] * inv;
      const T* xj = x.data() + a.col_at(t) * kx;
      for (index_t g = 0; g < kx; ++g) oi[g] += w * xj[g];
    }
  };
  if (sched->row_parallel()) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) row_body(i, a.row_begin(i), a.row_end(i));
    return;
  }
  // Chunked online softmax + aggregation, never materializing a split row's
  // full score vector. Whole rows run row_body unchanged (bitwise identical
  // to RowParallel). Split rows go in four phases:
  //   1. each piece computes (mx_p, sum_p = sum exp(s - mx_p)) from its
  //      recomputed scores;
  //   2. row max / denominator folded from the piece stats in piece order;
  //   3. each piece recomputes its scores and accumulates
  //      exp(s - mx) / denom * x_j into its kx-wide partial;
  //   4. partials fold into the output row in piece order.
  // Phase 2/4 fold orders are schedule-determined, so repeated runs and any
  // thread count reproduce bitwise.
  const auto& cs = sched->chunks();
  const auto& ps = sched->pieces();
  const auto& srs = sched->split_rows();
  const index_t nc = static_cast<index_t>(cs.size());
  const index_t np = sched->num_pieces();
  const index_t nsr = sched->num_split_rows();
  T* pstat = detail::schedule_arena<T, 2>(2 * static_cast<std::size_t>(np));
  T* rv = detail::schedule_arena<T, 3>(2 * static_cast<std::size_t>(nsr));
  T* part = detail::schedule_arena<T>(static_cast<std::size_t>(np) *
                                      static_cast<std::size_t>(kx));
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 1)
    for (index_t ci = 0; ci < nc; ++ci) {
      const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
      if (c.piece >= 0) {
        const index_t i = c.row_begin;
        const T s1i = s1[static_cast<std::size_t>(i)];
        T mx = -std::numeric_limits<T>::infinity();
        for (index_t t = c.edge_begin; t < c.edge_end; ++t) {
          const T cc = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
          const T lrelu = (cc > T(0) ? cc : leaky_slope * cc) * a.val_at(t);
          mx = std::max(mx, lrelu);
        }
        T sum = T(0);
        for (index_t t = c.edge_begin; t < c.edge_end; ++t) {
          const T cc = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
          const T lrelu = (cc > T(0) ? cc : leaky_slope * cc) * a.val_at(t);
          sum += std::exp(lrelu - mx);
        }
        pstat[2 * c.piece] = mx;
        pstat[2 * c.piece + 1] = sum;
      } else {
        for (index_t i = c.row_begin; i < c.row_end; ++i) {
          row_body(i, a.row_begin(i), a.row_end(i));
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
      const T s1i = s1[static_cast<std::size_t>(p.row)];
      const T mx = rv[2 * p.split];
      const T inv = rv[2 * p.split + 1];
      T* pp = part + pi * kx;
      for (index_t g = 0; g < kx; ++g) pp[g] = T(0);
      for (index_t t = p.edge_begin; t < p.edge_end; ++t) {
        const T cc = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
        const T lrelu = (cc > T(0) ? cc : leaky_slope * cc) * a.val_at(t);
        const T w = std::exp(lrelu - mx) * inv;
        const T* xj = x.data() + a.col_at(t) * kx;
        for (index_t g = 0; g < kx; ++g) pp[g] += w * xj[g];
      }
    }
#pragma omp for schedule(static)
    for (index_t si = 0; si < nsr; ++si) {
      const KernelSchedule::SplitRow& sr = srs[static_cast<std::size_t>(si)];
      T* oi = out.data() + sr.row * kx;
      for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) {
        const T* pp = part + p * kx;
        for (index_t g = 0; g < kx; ++g) oi[g] += pp[g];
      }
    }
  }
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
