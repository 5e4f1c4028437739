// CsrMatrix<T>: compressed-sparse-row matrix.
//
// This is the n x n sparse matrix of Table 1 — it stores either the graph
// adjacency structure or the per-edge attention scores Psi. Every sparse
// kernel in the project (SpMM, SDDMM, fused Psi, graph softmax) runs on CSR.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "tensor/coo_matrix.hpp"
#include "tensor/common.hpp"
#include "tensor/dense_matrix.hpp"

namespace agnn {

template <typename T>
class CsrMatrix {
 public:
  using value_type = T;

  CsrMatrix() = default;

  CsrMatrix(index_t n_rows, index_t n_cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<T> vals)
      : n_rows_(n_rows),
        n_cols_(n_cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        vals_(std::move(vals)) {
    AGNN_ASSERT(static_cast<index_t>(row_ptr_.size()) == n_rows_ + 1,
                "row_ptr must have n_rows+1 entries");
    AGNN_ASSERT(col_idx_.size() == vals_.size(), "col_idx/vals size mismatch");
    AGNN_ASSERT(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
                "row_ptr must end at nnz");
  }

  static CsrMatrix from_coo(const CooMatrix<T>& coo_in) {
    CooMatrix<T> coo = coo_in;
    coo.sort();
    CsrMatrix csr;
    csr.n_rows_ = coo.n_rows;
    csr.n_cols_ = coo.n_cols;
    csr.row_ptr_.assign(static_cast<std::size_t>(coo.n_rows + 1), 0);
    csr.col_idx_.resize(coo.rows.size());
    csr.vals_.resize(coo.rows.size());
    for (std::size_t e = 0; e < coo.rows.size(); ++e) {
      AGNN_ASSERT(coo.rows[e] >= 0 && coo.rows[e] < coo.n_rows, "row index out of range");
      AGNN_ASSERT(coo.cols[e] >= 0 && coo.cols[e] < coo.n_cols, "col index out of range");
      csr.row_ptr_[static_cast<std::size_t>(coo.rows[e]) + 1]++;
      csr.col_idx_[e] = coo.cols[e];
      csr.vals_[e] = coo.vals[e];
    }
    for (std::size_t i = 1; i < csr.row_ptr_.size(); ++i) {
      csr.row_ptr_[i] += csr.row_ptr_[i - 1];
    }
    return csr;
  }

  CooMatrix<T> to_coo() const {
    CooMatrix<T> coo;
    coo.n_rows = n_rows_;
    coo.n_cols = n_cols_;
    coo.reserve(static_cast<std::size_t>(nnz()));
    for (index_t i = 0; i < n_rows_; ++i) {
      for (index_t e = row_ptr_[static_cast<std::size_t>(i)];
           e < row_ptr_[static_cast<std::size_t>(i) + 1]; ++e) {
        coo.push_back(i, col_idx_[static_cast<std::size_t>(e)],
                      vals_[static_cast<std::size_t>(e)]);
      }
    }
    return coo;
  }

  index_t rows() const { return n_rows_; }
  index_t cols() const { return n_cols_; }
  index_t nnz() const { return static_cast<index_t>(col_idx_.size()); }

  // Backing-storage capacities, used by the Workspace pool to decide whether
  // an existing buffer can absorb a pattern without allocating.
  index_t nnz_capacity() const { return static_cast<index_t>(vals_.capacity()); }
  index_t rows_capacity() const {
    return static_cast<index_t>(row_ptr_.capacity()) - 1;
  }

  void reserve(index_t rows, index_t nnz) {
    row_ptr_.reserve(static_cast<std::size_t>(rows + 1));
    col_idx_.reserve(static_cast<std::size_t>(nnz));
    vals_.reserve(static_cast<std::size_t>(nnz));
  }

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const T> vals() const { return vals_; }
  std::span<T> vals_mutable() { return vals_; }

  // For a kernel that writes a matrix with `pattern`'s structure entry by
  // entry (sddmm, sddmm_unweighted, psi_agnn). Takes `pattern`'s shape, row
  // pointers and source-edge map, sizes the column indices and values to
  // its non-zeros without copying them, and returns the column-index slots.
  // The kernel must copy every slot from `pattern.col_idx()` and write every
  // value, which leaves `*this` as `*this = pattern` followed by the value
  // writes would. On `pattern` itself it changes nothing. Within capacity
  // it allocates nothing.
  std::span<index_t> adopt_structure(const CsrMatrix& pattern) {
    if (&pattern != this) {
      n_rows_ = pattern.n_rows_;
      n_cols_ = pattern.n_cols_;
      row_ptr_ = pattern.row_ptr_;
      col_idx_.resize(pattern.col_idx_.size());
      vals_.resize(pattern.vals_.size());
      src_ = pattern.src_;
    }
    return col_idx_;
  }

  // Where each entry came from, if this matrix was built by
  // transposed_into: entry p is edge source_edges()[p] of the source matrix,
  // so the value transpose of any matrix M with the source's pattern reads
  // M.vals()[source_edges()[p]] (spmm_transposed). Empty otherwise. The map
  // is part of the value transposed_into builds, not a cache: copies, moves
  // and cast keep it, the constructor, from_coo and block leave it empty,
  // and every assignment replaces it.
  std::span<const index_t> source_edges() const { return src_; }

  index_t row_begin(index_t i) const { return row_ptr_[static_cast<std::size_t>(i)]; }
  index_t row_end(index_t i) const { return row_ptr_[static_cast<std::size_t>(i) + 1]; }
  index_t row_nnz(index_t i) const { return row_end(i) - row_begin(i); }
  index_t max_row_nnz() const {
    index_t m = 0;
    for (index_t i = 0; i < n_rows_; ++i) m = std::max(m, row_nnz(i));
    return m;
  }
  index_t col_at(index_t e) const { return col_idx_[static_cast<std::size_t>(e)]; }
  T val_at(index_t e) const { return vals_[static_cast<std::size_t>(e)]; }
  T& val_at(index_t e) { return vals_[static_cast<std::size_t>(e)]; }

  // A structural copy with the same sparsity pattern and all values set to v.
  // The pattern buffers are shared copies (cheap vectors), values fresh.
  CsrMatrix with_values(T v) const {
    CsrMatrix out = *this;
    std::fill(out.vals_.begin(), out.vals_.end(), v);
    return out;
  }

  bool same_pattern(const CsrMatrix& other) const {
    return n_rows_ == other.n_rows_ && n_cols_ == other.n_cols_ &&
           row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_;
  }

  // Transpose via a counting pass; O(nnz + n). The backward pass runs on the
  // reversed graph (Section 5.2); it builds A^T once and reads every other
  // transpose through A^T's source_edges() map.
  //
  // The out-parameter form writes into caller-owned storage and allocates
  // nothing once `out`'s buffers have the capacity (Workspace-friendly). It
  // avoids the usual scratch cursor vector: row_ptr_ entries themselves serve
  // as insertion cursors, then get shifted back down by one at the end. Rows
  // are visited in order, so row c of `out` lists its source rows in
  // increasing order.
  void transposed_into(CsrMatrix& out) const {
    AGNN_ASSERT(&out != this, "transposed_into cannot alias its input");
    out.n_rows_ = n_cols_;
    out.n_cols_ = n_rows_;
    out.row_ptr_.assign(static_cast<std::size_t>(n_cols_ + 1), 0);
    out.col_idx_.resize(col_idx_.size());
    out.vals_.resize(vals_.size());
    out.src_.resize(col_idx_.size());
    auto& rp = out.row_ptr_;
    for (const index_t c : col_idx_) rp[static_cast<std::size_t>(c) + 1]++;
    for (std::size_t i = 1; i < rp.size(); ++i) rp[i] += rp[i - 1];
    for (index_t i = 0; i < n_rows_; ++i) {
      for (index_t e = row_begin(i); e < row_end(i); ++e) {
        const index_t c = col_at(e);
        const auto pos = static_cast<std::size_t>(rp[static_cast<std::size_t>(c)]++);
        out.col_idx_[pos] = i;
        out.vals_[pos] = val_at(e);
        out.src_[pos] = e;
      }
    }
    // Each rp[c] has advanced to rp[c+1]'s final value; shift back down.
    for (std::size_t c = rp.size() - 1; c > 0; --c) rp[c] = rp[c - 1];
    rp[0] = 0;
  }

  CsrMatrix transposed() const {
    CsrMatrix t;
    transposed_into(t);
    return t;
  }

  // Densify — only for tests and the "unfused" ablation reference; O(n^2).
  DenseMatrix<T> to_dense() const {
    DenseMatrix<T> d(n_rows_, n_cols_, T(0));
    for (index_t i = 0; i < n_rows_; ++i) {
      for (index_t e = row_begin(i); e < row_end(i); ++e) d(i, col_at(e)) += val_at(e);
    }
    return d;
  }

  // Extract the submatrix of rows [r0, r1) and columns [c0, c1), reindexed
  // to local coordinates. Used by the 2D block distribution of A.
  CsrMatrix block(index_t r0, index_t r1, index_t c0, index_t c1) const {
    AGNN_ASSERT(0 <= r0 && r0 <= r1 && r1 <= n_rows_, "bad row block");
    AGNN_ASSERT(0 <= c0 && c0 <= c1 && c1 <= n_cols_, "bad col block");
    CsrMatrix out;
    out.n_rows_ = r1 - r0;
    out.n_cols_ = c1 - c0;
    out.row_ptr_.assign(static_cast<std::size_t>(out.n_rows_ + 1), 0);
    for (index_t i = r0; i < r1; ++i) {
      index_t cnt = 0;
      for (index_t e = row_begin(i); e < row_end(i); ++e) {
        const index_t c = col_at(e);
        if (c >= c0 && c < c1) ++cnt;
      }
      out.row_ptr_[static_cast<std::size_t>(i - r0) + 1] = cnt;
    }
    for (std::size_t i = 1; i < out.row_ptr_.size(); ++i) {
      out.row_ptr_[i] += out.row_ptr_[i - 1];
    }
    out.col_idx_.resize(static_cast<std::size_t>(out.row_ptr_.back()));
    out.vals_.resize(out.col_idx_.size());
    for (index_t i = r0; i < r1; ++i) {
      index_t pos = out.row_ptr_[static_cast<std::size_t>(i - r0)];
      for (index_t e = row_begin(i); e < row_end(i); ++e) {
        const index_t c = col_at(e);
        if (c >= c0 && c < c1) {
          out.col_idx_[static_cast<std::size_t>(pos)] = c - c0;
          out.vals_[static_cast<std::size_t>(pos)] = val_at(e);
          ++pos;
        }
      }
    }
    return out;
  }

  template <typename U>
  CsrMatrix<U> cast() const {
    std::vector<U> v(vals_.size());
    for (std::size_t i = 0; i < vals_.size(); ++i) v[i] = static_cast<U>(vals_[i]);
    CsrMatrix<U> out(n_rows_, n_cols_, row_ptr_, col_idx_, std::move(v));
    out.src_ = src_;
    return out;
  }

 private:
  template <typename U>
  friend class CsrMatrix;

  index_t n_rows_ = 0;
  index_t n_cols_ = 0;
  std::vector<index_t> row_ptr_{0};
  std::vector<index_t> col_idx_;
  std::vector<T> vals_;
  std::vector<index_t> src_;  // source_edges(); empty unless transposed_into built it
};

}  // namespace agnn
