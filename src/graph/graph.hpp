// Graph<T>: the adjacency substrate handed to the GNN models.
//
// Wraps the CSR adjacency matrix plus the preprocessing the paper's
// artifact applies to every dataset: duplicate-edge removal, isolated-vertex
// fixing (each vertex is connected to at least one other), optional
// symmetrization, self-loops (GAT's N̂(v) = N(v) ∪ {v}), and the symmetric
// degree normalization 1/sqrt(d_i d_j) used by the GCN / C-GNN path.
#pragma once

#include <cmath>
#include <vector>

#include "graph/edge_list.hpp"
#include "tensor/coo_matrix.hpp"
#include "tensor/csr_matrix.hpp"

namespace agnn::graph {

struct BuildOptions {
  bool symmetrize = true;       // undirected graphs: A := A ∪ A^T
  bool add_self_loops = false;  // N̂(v) = N(v) ∪ {v}
  bool fix_isolated = true;     // connect isolated v to (v+1) mod n (artifact B0)
  bool remove_self_loops = true;  // drop generator-produced loops first
};

template <typename T>
struct Graph {
  CsrMatrix<T> adj;  // n x n, values are edge weights (1 unless normalized)

  index_t num_vertices() const { return adj.rows(); }
  index_t num_edges() const { return adj.nnz(); }
  double density() const {
    const double n = static_cast<double>(adj.rows());
    return n > 0 ? static_cast<double>(adj.nnz()) / (n * n) : 0.0;
  }

  std::vector<index_t> out_degrees() const {
    std::vector<index_t> d(static_cast<std::size_t>(adj.rows()));
    for (index_t i = 0; i < adj.rows(); ++i) d[static_cast<std::size_t>(i)] = adj.row_nnz(i);
    return d;
  }

  index_t max_degree() const { return adj.max_row_nnz(); }
};

// Build a Graph from a raw generator edge list, applying the artifact's
// post-processing pipeline.
template <typename T>
Graph<T> build_graph(const EdgeList& el, const BuildOptions& opt = {}) {
  CooMatrix<T> coo;
  coo.n_rows = el.n;
  coo.n_cols = el.n;
  const std::size_t base = el.src.size();
  coo.reserve(opt.symmetrize ? 2 * base : base);
  for (std::size_t e = 0; e < base; ++e) {
    coo.push_back(el.src[e], el.dst[e], T(1));
    if (opt.symmetrize && el.src[e] != el.dst[e]) {
      coo.push_back(el.dst[e], el.src[e], T(1));
    }
  }
  if (opt.remove_self_loops) coo.remove_self_loops();
  coo.dedup_binary(T(1));

  if (opt.fix_isolated && el.n > 1) {
    // A vertex with no incident edge at all breaks softmax rows and degree
    // normalization; attach it to its successor (and back, if symmetric).
    std::vector<bool> touched(static_cast<std::size_t>(el.n), false);
    for (std::size_t e = 0; e < coo.rows.size(); ++e) {
      touched[static_cast<std::size_t>(coo.rows[e])] = true;
      touched[static_cast<std::size_t>(coo.cols[e])] = true;
    }
    bool added = false;
    for (index_t v = 0; v < el.n; ++v) {
      if (!touched[static_cast<std::size_t>(v)]) {
        const index_t u = (v + 1) % el.n;
        coo.push_back(v, u, T(1));
        if (opt.symmetrize) coo.push_back(u, v, T(1));
        added = true;
      }
    }
    if (added) coo.dedup_binary(T(1));
  }

  if (opt.add_self_loops) {
    for (index_t v = 0; v < el.n; ++v) coo.push_back(v, v, T(1));
    coo.dedup_binary(T(1));
  }

  return Graph<T>{CsrMatrix<T>::from_coo(coo)};
}

// Symmetric normalization Â(i,j) = A(i,j) / sqrt(d_i d_j) (degrees from row
// sums). The GCN model runs on Â; attention models keep A binary.
template <typename T>
CsrMatrix<T> sym_normalize(const CsrMatrix<T>& a) {
  AGNN_ASSERT(a.rows() == a.cols(), "sym_normalize: A must be square");
  std::vector<T> inv_sqrt_deg(static_cast<std::size_t>(a.rows()), T(0));
  for (index_t i = 0; i < a.rows(); ++i) {
    T d = T(0);
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) d += a.val_at(e);
    inv_sqrt_deg[static_cast<std::size_t>(i)] =
        d > T(0) ? T(1) / std::sqrt(d) : T(0);
  }
  CsrMatrix<T> out = a;
  auto v = out.vals_mutable();
  for (index_t i = 0; i < a.rows(); ++i) {
    const T ri = inv_sqrt_deg[static_cast<std::size_t>(i)];
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      v[static_cast<std::size_t>(e)] *=
          ri * inv_sqrt_deg[static_cast<std::size_t>(a.col_at(e))];
    }
  }
  return out;
}

// Row normalization A(i,j) / d_i (random-walk normalization).
template <typename T>
CsrMatrix<T> row_normalize(const CsrMatrix<T>& a) {
  CsrMatrix<T> out = a;
  auto v = out.vals_mutable();
  for (index_t i = 0; i < a.rows(); ++i) {
    T d = T(0);
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) d += a.val_at(e);
    if (d <= T(0)) continue;
    const T inv = T(1) / d;
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      v[static_cast<std::size_t>(e)] *= inv;
    }
  }
  return out;
}

}  // namespace agnn::graph
