// Vertex reordering utilities: permutations applied consistently to the
// adjacency matrix (P A P^T) and feature matrices (P X).
//
// Reordering matters for the distributed engines: Kronecker graphs
// concentrate the hubs on low vertex ids, so the natural order gives the
// first grid row/rank a disproportionate share of the edges. A random
// shuffle rebalances the 2D blocks; degree-descending order does the
// opposite (worst case) and is useful for stress-testing load imbalance.
// RCM clusters each vertex's neighbors nearby: tighter column ranges per
// row chunk.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "dist/process_grid.hpp"
#include "tensor/coo_matrix.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"

namespace agnn::graph {

// perm[v] = new id of vertex v. Must be a bijection on [0, n).
using Permutation = std::vector<index_t>;

// Bijection check in O(n) with no steady-state allocation: the scratch is an
// epoch-stamped thread_local buffer (grown to the high-water mark, never
// cleared — a stale stamp from a previous epoch reads as "unseen"). The
// permute_* helpers below run in benchmark hot loops, so a fresh
// vector<bool> per call was a measurable allocation leak; the
// zero-allocation audit in test_schedule.cpp now covers this path.
inline void validate_permutation(const Permutation& perm, index_t n) {
  AGNN_ASSERT(static_cast<index_t>(perm.size()) == n, "permutation size mismatch");
  thread_local std::vector<index_t> stamp;
  thread_local index_t epoch = 0;
  if (static_cast<index_t>(stamp.size()) < n) {
    stamp.assign(static_cast<std::size_t>(n), epoch);
  }
  ++epoch;
  for (const index_t p : perm) {
    AGNN_ASSERT(p >= 0 && p < n, "permutation value out of range");
    AGNN_ASSERT(stamp[static_cast<std::size_t>(p)] != epoch,
                "permutation has duplicates");
    stamp[static_cast<std::size_t>(p)] = epoch;
  }
}

inline Permutation identity_permutation(index_t n) {
  Permutation perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t(0));
  return perm;
}

inline Permutation random_permutation(index_t n, std::uint64_t seed) {
  Permutation perm = identity_permutation(n);
  Rng rng(seed);
  for (index_t i = n - 1; i > 0; --i) {  // Fisher-Yates
    const auto j = static_cast<index_t>(
        rng.next_bounded(static_cast<std::uint64_t>(i + 1)));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

// Degree-descending: hubs first (new id 0 = highest degree). Ties broken by
// vertex id for determinism.
template <typename T>
Permutation degree_descending_permutation(const CsrMatrix<T>& adj) {
  const index_t n = adj.rows();
  std::vector<index_t> order = identity_permutation(n);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return adj.row_nnz(a) > adj.row_nnz(b);
  });
  Permutation perm(static_cast<std::size_t>(n));
  for (index_t new_id = 0; new_id < n; ++new_id) {
    perm[static_cast<std::size_t>(order[static_cast<std::size_t>(new_id)])] = new_id;
  }
  return perm;
}

// Reverse Cuthill–McKee: BFS from a minimum-degree vertex of each connected
// component, visiting neighbors in ascending-degree order (ties by id), then
// reverse the visit order. Produces a low-bandwidth ordering on (near-)
// symmetric adjacencies — neighbor columns cluster near the diagonal, which
// shrinks the gather footprint of the SpMM kernels. Deterministic:
// no randomness, all ties broken by vertex id. Treats adj's rows as the
// neighbor lists (graph CSRs here are symmetrized; on a directed matrix
// this orders by out-neighbors only).
template <typename T>
Permutation rcm_permutation(const CsrMatrix<T>& adj) {
  AGNN_ASSERT(adj.rows() == adj.cols(), "rcm_permutation: adjacency must be square");
  const index_t n = adj.rows();
  // Component seeds in ascending (degree, id): one sort gives every BFS
  // restart the minimum-degree unvisited vertex without rescanning.
  std::vector<index_t> seeds = identity_permutation(n);
  std::stable_sort(seeds.begin(), seeds.end(), [&](index_t a, index_t b) {
    return adj.row_nnz(a) < adj.row_nnz(b);
  });
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> nbrs;
  for (const index_t seed : seeds) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    const std::size_t head = order.size();
    order.push_back(seed);
    visited[static_cast<std::size_t>(seed)] = 1;
    for (std::size_t q = head; q < order.size(); ++q) {
      const index_t v = order[q];
      nbrs.clear();
      for (index_t e = adj.row_begin(v); e < adj.row_end(v); ++e) {
        const index_t w = adj.col_at(e);
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          nbrs.push_back(w);
        }
      }
      std::stable_sort(nbrs.begin(), nbrs.end(), [&](index_t a, index_t b) {
        return adj.row_nnz(a) < adj.row_nnz(b);
      });
      order.insert(order.end(), nbrs.begin(), nbrs.end());
    }
  }
  Permutation perm(static_cast<std::size_t>(n));
  for (index_t pos = 0; pos < n; ++pos) {
    // Reverse: the vertex visited at `pos` gets new id n-1-pos.
    perm[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] = n - 1 - pos;
  }
  return perm;
}

// B = P A P^T: vertex v of A becomes vertex perm[v] of B.
template <typename T>
CsrMatrix<T> permute_graph(const CsrMatrix<T>& adj, const Permutation& perm) {
  AGNN_ASSERT(adj.rows() == adj.cols(), "permute_graph: adjacency must be square");
  validate_permutation(perm, adj.rows());
  CooMatrix<T> coo;
  coo.n_rows = coo.n_cols = adj.rows();
  coo.reserve(static_cast<std::size_t>(adj.nnz()));
  for (index_t i = 0; i < adj.rows(); ++i) {
    for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
      coo.push_back(perm[static_cast<std::size_t>(i)],
                    perm[static_cast<std::size_t>(adj.col_at(e))], adj.val_at(e));
    }
  }
  return CsrMatrix<T>::from_coo(coo);
}

// Y = P X: row v of X becomes row perm[v] of Y. The out-parameter form
// allocates nothing within capacity; `out` must not alias `x`. The
// permutation is validated once here — the row copies themselves can't
// go out of bounds after validation.
template <typename T>
void permute_rows(const DenseMatrix<T>& x, const Permutation& perm,
                  DenseMatrix<T>& out) {
  AGNN_ASSERT(&out != &x, "permute_rows: output cannot alias the input");
  validate_permutation(perm, x.rows());
  out.resize(x.rows(), x.cols());
  for (index_t v = 0; v < x.rows(); ++v) {
    const auto src = x.row(v);
    auto dst = out.row(perm[static_cast<std::size_t>(v)]);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

template <typename T>
DenseMatrix<T> permute_rows(const DenseMatrix<T>& x, const Permutation& perm) {
  DenseMatrix<T> out;
  permute_rows(x, perm, out);
  return out;
}

template <typename T>
void permute_vector(const std::vector<T>& x, const Permutation& perm,
                    std::vector<T>& out) {
  AGNN_ASSERT(&out != &x, "permute_vector: output cannot alias the input");
  validate_permutation(perm, static_cast<index_t>(x.size()));
  out.resize(x.size());
  for (std::size_t v = 0; v < x.size(); ++v) {
    out[static_cast<std::size_t>(perm[v])] = x[v];
  }
}

template <typename T>
std::vector<T> permute_vector(const std::vector<T>& x, const Permutation& perm) {
  std::vector<T> out;
  permute_vector(x, perm, out);
  return out;
}

// Imbalance of a 2D block partition: max block nnz over mean block nnz —
// the quantity vertex reordering changes for heavy-tail graphs. The
// partition is dist::block_index_of, the exact inverse of the
// dist::block_range partition the process grids use — so the imbalance
// measured here is the imbalance the 2D engines actually see (an earlier
// local reimplementation diverged from it when grid_side > n).
template <typename T>
double block_imbalance(const CsrMatrix<T>& adj, int grid_side) {
  AGNN_ASSERT(grid_side >= 1, "grid side must be positive");
  const index_t n = adj.rows();
  std::vector<double> block_nnz(static_cast<std::size_t>(grid_side * grid_side), 0);
  for (index_t i = 0; i < n; ++i) {
    const index_t bi = dist::block_index_of(n, grid_side, i);
    for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
      block_nnz[static_cast<std::size_t>(
          bi * grid_side + dist::block_index_of(n, grid_side, adj.col_at(e)))] += 1;
    }
  }
  double mx = 0, total = 0;
  for (const double b : block_nnz) {
    mx = std::max(mx, b);
    total += b;
  }
  const double mean = total / static_cast<double>(block_nnz.size());
  return mean > 0 ? mx / mean : 0.0;
}

}  // namespace agnn::graph
