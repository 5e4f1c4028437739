// Disjoint-union batching of sampled ego networks + the forward-only pass
// that drives the workspace-backed kernels over the resulting blocks.
//
// A batch is the BLOCK-DIAGONAL union of its requests' per-layer blocks:
// request r's sub-block occupies a contiguous row/column range of the
// batched square adjacency for every layer, with no cross-request edges.
// Combined with the row-locality of every forward kernel (per-row CSR-order
// reductions by one thread, row-local attention normalization — DESIGN.md
// §11), this makes the batched output for request r
// BITWISE EQUAL to running the same ego network alone through
// serve_sequential: batching is a pure throughput transform, never an
// accuracy (or even ULP) transform. tests/test_serving.cpp and the
// differential `serving` suite enforce exactly that.
//
// Between layers the dst rows of each request must be re-packed into a
// contiguous input for the next layer (request r's dst rows are a prefix of
// its own segment, not of the whole batched output); that compaction is a
// row gather with precomputed indices (tensor/dense_ops.hpp gather_rows).
#pragma once

#include <vector>

#include "core/model.hpp"
#include "serve/sampler.hpp"
#include "tensor/dense_ops.hpp"

namespace agnn::serve {

template <typename T>
struct BatchBlocks {
  index_t num_requests = 0;
  index_t num_layers = 0;
  std::vector<CsrMatrix<T>> adj;        // per layer: block-diagonal, square
  std::vector<index_t> input_vertices;  // global ids feeding layer 0, in batch order
  // compaction[i]: row indices into layer i's output. For i < L-1 they
  // assemble layer i+1's input; compaction[L-1] selects the seed rows of
  // the final output (one per request, in batch order).
  std::vector<std::vector<index_t>> compaction;
  std::vector<index_t> seed_vertices;   // global seed per request (diagnostics)
};

// Assemble the block-diagonal batch. Every net must have the same number of
// layers (they come from one sampler). Nets are consumed read-only; the
// batch copies their patterns into fresh CSRs (per-batch temporaries — the
// serving path is allocating by design, the zero-alloc contract covers the
// kernels it calls, not batch assembly).
template <typename T>
BatchBlocks<T> build_batch(std::span<const SampledEgoNet<T>* const> nets) {
  AGNN_ASSERT(!nets.empty(), "build_batch: empty batch");
  BatchBlocks<T> bb;
  bb.num_requests = static_cast<index_t>(nets.size());
  bb.num_layers = nets[0]->num_layers();
  for (const auto* net : nets) {
    AGNN_ASSERT(net->num_layers() == bb.num_layers,
                "build_batch: mixed layer counts in one batch");
    bb.input_vertices.insert(bb.input_vertices.end(), net->vertices.begin(),
                             net->vertices.end());
    bb.seed_vertices.push_back(net->vertices.front());
  }

  bb.adj.reserve(static_cast<std::size_t>(bb.num_layers));
  bb.compaction.resize(static_cast<std::size_t>(bb.num_layers));
  for (index_t i = 0; i < bb.num_layers; ++i) {
    const auto li = static_cast<std::size_t>(i);
    index_t total_n = 0, total_nnz = 0;
    for (const auto* net : nets) {
      total_n += net->src_size(li);
      total_nnz += net->blocks[li].nnz();
    }
    std::vector<index_t> row_ptr;
    std::vector<index_t> col_idx;
    std::vector<T> vals;
    row_ptr.reserve(static_cast<std::size_t>(total_n) + 1);
    col_idx.reserve(static_cast<std::size_t>(total_nnz));
    vals.reserve(static_cast<std::size_t>(total_nnz));
    row_ptr.push_back(0);
    index_t row_off = 0;
    for (const auto* net : nets) {
      const CsrMatrix<T>& b = net->blocks[li];
      for (index_t r = 0; r < b.rows(); ++r) {
        for (index_t e = b.row_begin(r); e < b.row_end(r); ++e) {
          col_idx.push_back(b.col_at(e) + row_off);
          vals.push_back(b.val_at(e));
        }
        row_ptr.push_back(static_cast<index_t>(col_idx.size()));
      }
      // Compaction: this request's dst rows (a prefix of its segment).
      const index_t dst_n =
          i + 1 < bb.num_layers ? net->dst_size(li) : net->num_seeds();
      for (index_t d = 0; d < dst_n; ++d) {
        bb.compaction[li].push_back(row_off + d);
      }
      row_off += b.rows();
    }
    bb.adj.emplace_back(total_n, total_n, std::move(row_ptr),
                        std::move(col_idx), std::move(vals));
  }
  return bb;
}

// Run the model's layers forward over the batched blocks. `x0` holds the
// input features of `bb.input_vertices` (same order). `out` receives one
// row per request: the seed vertex's final-layer embedding, in batch order.
// All scratch comes from `ws`; nothing but the per-batch CSRs allocates
// once the pool is warm.
template <typename T>
void forward_batch(const GnnModel<T>& model, const BatchBlocks<T>& bb,
                   const DenseMatrix<T>& x0, Workspace<T>& ws,
                   DenseMatrix<T>& out) {
  AGNN_ASSERT(static_cast<index_t>(model.num_layers()) == bb.num_layers,
              "forward_batch: model/batch layer count mismatch");
  AGNN_ASSERT(x0.rows() == bb.adj[0].rows(),
              "forward_batch: input feature rows must match layer-0 block");
  // `x` only ever holds compacted layer OUTPUTS (layer 0 reads x0 in
  // place), so max_layer_width covers both ping-pong buffers.
  const index_t max_w = model.max_layer_width();
  auto x = ws.acquire_dense(x0.rows(), max_w);
  auto z = ws.acquire_dense(x0.rows(), max_w);
  const DenseMatrix<T>* src = &x0;
  for (index_t i = 0; i < bb.num_layers; ++i) {
    const auto li = static_cast<std::size_t>(i);
    model.layer(li).forward(bb.adj[li], *src, nullptr, ws, *z);
    if (i + 1 < bb.num_layers) {
      gather_rows(*z, std::span<const index_t>(bb.compaction[li]), *x);
      src = &x.get();
    } else {
      gather_rows(*z, std::span<const index_t>(bb.compaction[li]), out);
    }
  }
}

// The per-request reference path: sample one ego network, gather its input
// features straight from the global matrix (no cache), run the blocks
// forward. The batched server path must reproduce this bitwise for every
// request — this is the oracle the tests and the `serving` fuzz suite diff
// against, and the baseline the serving benchmark compares throughput to.
template <typename T>
std::vector<T> serve_sequential(const GnnModel<T>& model,
                                const CsrMatrix<T>& adj,
                                const DenseMatrix<T>& x_global,
                                const NeighborSampler& sampler, index_t vertex,
                                std::uint64_t sample_seed, Workspace<T>& ws) {
  const SampledEgoNet<T> net = sampler.sample(adj, vertex, sample_seed);
  const SampledEgoNet<T>* nets[] = {&net};
  const BatchBlocks<T> bb = build_batch(std::span<const SampledEgoNet<T>* const>(nets));
  auto x0 = ws.acquire_dense(static_cast<index_t>(bb.input_vertices.size()),
                             x_global.cols());
  gather_rows(x_global, std::span<const index_t>(bb.input_vertices), *x0);
  auto out = ws.acquire_dense(1, model.max_layer_width());
  forward_batch(model, bb, *x0, ws, *out);
  const auto row = out->row(0);
  return std::vector<T>(row.begin(), row.end());
}

}  // namespace agnn::serve
