// SpMM — sparse matrix times tall dense matrix (Table 2) — and its
// semiring generalization (Section 4.3).
//
// This is the ⊕ aggregation of the global formulation: out = A ⊕ H.
// Row-parallel over the sparse matrix; each output row is owned by exactly
// one thread so no atomics are needed.
//
// Every kernel has an out-parameter overload `kernel(..., out)` that resizes
// `out` in place and overwrites every element — within capacity this
// performs no heap allocation, which is what the Workspace pool relies on.
// The by-value signatures are thin wrappers kept for tests and examples.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/obs_scope.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/semiring.hpp"
#include "tensor/sparse_core.hpp"

namespace agnn {

// Generalized SpMM over an arbitrary semiring S. Each thread folds its rows
// into one per-thread accumulator row, in edge order.
template <typename S, typename T>
void spmm_semiring(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                   DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("spmm_semiring",
                    obs::spmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(a.cols() == h.rows(), "spmm: dimension mismatch");
  const index_t n = a.rows(), k = h.cols();
  out.resize(n, k);
  using Accum = typename S::Accum;
#pragma omp parallel
  {
    Accum* acc = detail::thread_scratch<Accum>(static_cast<std::size_t>(k));
#pragma omp for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) {
      std::fill(acc, acc + k, S::identity());
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
        const index_t j = a.col_at(e);
        const T av = a.val_at(e);
        const T* hj = h.data() + j * k;
        for (index_t g = 0; g < k; ++g) S::accumulate(acc[g], av, hj[g]);
      }
      T* oi = out.data() + i * k;
      for (index_t g = 0; g < k; ++g) oi[g] = S::finalize(acc[g]);
    }
  }
}

template <typename S, typename T>
DenseMatrix<T> spmm_semiring(const CsrMatrix<T>& a, const DenseMatrix<T>& h) {
  DenseMatrix<T> out;
  spmm_semiring<S>(a, h, out);
  return out;
}

namespace detail {

// The real-semiring SpMM row loop shared by spmm, spmm_accumulate and their
// transposed forms: row i of `out` gets (or, with Accumulate, adds)
// sum over a's edges e of val(e) * h_{col(e)}, in edge order, through the
// sparse core's row-register aggregate. `val` says how an edge's value is
// read: from `a` itself, or through a transposed pattern's source_edges()
// map.
template <bool Accumulate, typename T, typename Val>
void spmm_rows(const CsrMatrix<T>& a, Val val, const DenseMatrix<T>& h,
               DenseMatrix<T>& out) {
  const index_t n = a.rows(), k = h.cols();
  const index_t* cols = a.col_idx().data();
  with_sparse_core([&](auto core) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) {
      core.aggregate(h.data(), k, cols, a.row_begin(i), a.row_end(i), val,
                     out.data() + i * k, Accumulate);
    }
  });
}

// A's own value at edge e.
template <typename T>
auto own_values(const CsrMatrix<T>& a) {
  return [v = a.vals().data()](index_t e) { return v[e]; };
}

// M^T's value at position e of `at`, where M has the pattern `at` was
// transposed from.
template <typename T>
auto gathered_values(const CsrMatrix<T>& at, std::span<const T> m_vals,
                     const char* kernel) {
  const auto src = at.source_edges();
  AGNN_ASSERT(static_cast<index_t>(src.size()) == at.nnz(),
              std::string(kernel) +
                  ": `at` has no source_edges() map (build it with transposed_into)");
  AGNN_ASSERT(m_vals.size() == src.size(),
              std::string(kernel) + ": m_vals must hold one value per edge of `at`");
  return [src = src.data(), m = m_vals.data()](index_t e) { return m[src[e]]; };
}

}  // namespace detail

// The standard real-semiring SpMM fast path: out = A * H.
template <typename T>
void spmm(const CsrMatrix<T>& a, const DenseMatrix<T>& h, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("spmm", obs::spmm_traffic_bytes(
                                static_cast<std::uint64_t>(a.nnz()),
                                static_cast<std::uint64_t>(a.rows()),
                                static_cast<std::uint64_t>(h.cols()),
                                sizeof(T), sizeof(index_t)));
  AGNN_ASSERT(a.cols() == h.rows(), "spmm: dimension mismatch");
  out.resize(a.rows(), h.cols());
  detail::spmm_rows<false>(a, detail::own_values(a), h, out);
}

template <typename T>
DenseMatrix<T> spmm(const CsrMatrix<T>& a, const DenseMatrix<T>& h) {
  DenseMatrix<T> out;
  spmm(a, h, out);
  return out;
}

// out += A * H (accumulating variant; the 1.5D distributed SpMM sums
// partial products from each grid column into the same output block).
template <typename T>
void spmm_accumulate(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                     DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("spmm_accumulate",
                    obs::spmm_traffic_bytes(
                        static_cast<std::uint64_t>(a.nnz()),
                        static_cast<std::uint64_t>(a.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)));
  AGNN_ASSERT(a.cols() == h.rows(), "spmm_accumulate: dimension mismatch");
  AGNN_ASSERT(out.rows() == a.rows() && out.cols() == h.cols(),
              "spmm_accumulate: output shape mismatch");
  detail::spmm_rows<true>(a, detail::own_values(a), h, out);
}

// out = M^T * H for a matrix M with the pattern of A, given at = A^T built
// by transposed_into and M's values `m_vals` in A's edge order. Nothing is
// transposed: each value is read through at.source_edges(). Row i of `at`
// lists its source rows in increasing order, the order transposed_into
// writes, so the result is bitwise equal to transposing M and running spmm.
// The byte tag adds the map read to spmm's.
template <typename T>
void spmm_transposed(const CsrMatrix<T>& at, std::span<const T> m_vals,
                     const DenseMatrix<T>& h, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("spmm_transposed",
                    obs::spmm_traffic_bytes(
                        static_cast<std::uint64_t>(at.nnz()),
                        static_cast<std::uint64_t>(at.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)) +
                        static_cast<std::uint64_t>(at.nnz()) * sizeof(index_t));
  AGNN_ASSERT(at.cols() == h.rows(), "spmm_transposed: dimension mismatch");
  const auto val = detail::gathered_values(at, m_vals, "spmm_transposed");
  out.resize(at.rows(), h.cols());
  detail::spmm_rows<false>(at, val, h, out);
}

// out += M^T * H, the accumulating form of spmm_transposed.
template <typename T>
void spmm_accumulate_transposed(const CsrMatrix<T>& at, std::span<const T> m_vals,
                                const DenseMatrix<T>& h, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE("spmm_accumulate_transposed",
                    obs::spmm_traffic_bytes(
                        static_cast<std::uint64_t>(at.nnz()),
                        static_cast<std::uint64_t>(at.rows()),
                        static_cast<std::uint64_t>(h.cols()), sizeof(T),
                        sizeof(index_t)) +
                        static_cast<std::uint64_t>(at.nnz()) * sizeof(index_t));
  AGNN_ASSERT(at.cols() == h.rows(), "spmm_accumulate_transposed: dimension mismatch");
  AGNN_ASSERT(out.rows() == at.rows() && out.cols() == h.cols(),
              "spmm_accumulate_transposed: output shape mismatch");
  const auto val = detail::gathered_values(at, m_vals, "spmm_accumulate_transposed");
  detail::spmm_rows<true>(at, val, h, out);
}

// Runtime-dispatched aggregation, the user-facing ⊕ of the generic model.
template <typename T>
void aggregate(const CsrMatrix<T>& a, const DenseMatrix<T>& h, Aggregation agg,
               DenseMatrix<T>& out) {
  AGNN_ASSERT(a.cols() == h.rows(), "aggregate: dimension mismatch");
  switch (agg) {
    case Aggregation::kSum: spmm(a, h, out); return;
    case Aggregation::kMin: spmm_semiring<MinPlusSemiring<T>>(a, h, out); return;
    case Aggregation::kMax: spmm_semiring<MaxPlusSemiring<T>>(a, h, out); return;
    case Aggregation::kMean: spmm_semiring<AverageSemiring<T>>(a, h, out); return;
  }
  AGNN_ASSERT(false, "unknown aggregation");
}

template <typename T>
DenseMatrix<T> aggregate(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                         Aggregation agg) {
  DenseMatrix<T> out;
  aggregate(a, h, agg, out);
  return out;
}

// SpMMM — sparse x dense x dense (Table 2, new kernel identified by the
// paper). Computes A * H * W choosing the cheaper association order:
// (A*H)*W costs nnz*k_in + n*k_in*k_out, A*(H*W) costs n*k_in*k_out +
// nnz*k_out. This realizes the Phi ∘ ⊕ ordering freedom of Section 4.4.
// The out-parameter form also takes a scratch matrix for the intermediate
// product so a pooled caller stays allocation-free.
template <typename T>
void spmmm(const CsrMatrix<T>& a, const DenseMatrix<T>& h, const DenseMatrix<T>& w,
           DenseMatrix<T>& scratch, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE(
      "spmmm",
      obs::spmm_traffic_bytes(static_cast<std::uint64_t>(a.nnz()),
                              static_cast<std::uint64_t>(a.rows()),
                              static_cast<std::uint64_t>(h.cols()), sizeof(T),
                              sizeof(index_t)) +
          obs::gemm_traffic_bytes(static_cast<std::uint64_t>(a.rows()),
                                  static_cast<std::uint64_t>(w.rows()),
                                  static_cast<std::uint64_t>(w.cols()),
                                  sizeof(T)));
  // Checked up front so a mismatch names spmmm instead of surfacing from an
  // inner spmm/matmul with a misleading message.
  AGNN_ASSERT(a.cols() == h.rows(), "spmmm: A.cols must match H.rows");
  AGNN_ASSERT(h.cols() == w.rows(), "spmmm: H.cols must match W.rows");
  AGNN_ASSERT(&scratch != &out, "spmmm: scratch and out must be distinct");
  const double k_in = static_cast<double>(h.cols());
  const double k_out = static_cast<double>(w.cols());
  const double nnz = static_cast<double>(a.nnz());
  const double n = static_cast<double>(a.rows());
  const double cost_agg_first = nnz * k_in + n * k_in * k_out;
  const double cost_proj_first = n * k_in * k_out + nnz * k_out;
  if (cost_agg_first <= cost_proj_first) {
    spmm(a, h, scratch);
    matmul(scratch, w, out);
  } else {
    matmul(h, w, scratch);
    spmm(a, scratch, out);
  }
}

template <typename T>
DenseMatrix<T> spmmm(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                     const DenseMatrix<T>& w) {
  DenseMatrix<T> scratch, out;
  spmmm(a, h, w, scratch, out);
  return out;
}

// MSpMM — dense x sparse x dense (Table 2). Computes X^T * A * Y, the
// compute pattern of the backward-pass weight update Y = H^T Psi' G.
template <typename T>
void mspmm(const DenseMatrix<T>& x, const CsrMatrix<T>& a, const DenseMatrix<T>& y,
           DenseMatrix<T>& scratch, DenseMatrix<T>& out) {
  AGNN_KERNEL_SCOPE(
      "mspmm",
      obs::spmm_traffic_bytes(static_cast<std::uint64_t>(a.nnz()),
                              static_cast<std::uint64_t>(a.rows()),
                              static_cast<std::uint64_t>(y.cols()), sizeof(T),
                              sizeof(index_t)) +
          obs::gemm_traffic_bytes(static_cast<std::uint64_t>(x.cols()),
                                  static_cast<std::uint64_t>(x.rows()),
                                  static_cast<std::uint64_t>(y.cols()),
                                  sizeof(T)));
  AGNN_ASSERT(x.rows() == a.rows() && a.cols() == y.rows(),
              "mspmm: dimension mismatch");
  AGNN_ASSERT(&scratch != &out, "mspmm: scratch and out must be distinct");
  // (A * Y) is tall-skinny; X^T * (A*Y) reduces to a small k x k result.
  spmm(a, y, scratch);
  matmul_tn(x, scratch, out);
}

template <typename T>
DenseMatrix<T> mspmm(const DenseMatrix<T>& x, const CsrMatrix<T>& a,
                     const DenseMatrix<T>& y) {
  DenseMatrix<T> scratch, out;
  mspmm(x, a, y, scratch, out);
  return out;
}

}  // namespace agnn
