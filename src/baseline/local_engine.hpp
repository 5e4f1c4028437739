// The LOCAL formulation of the GNN models, executed the way message-passing
// frameworks execute it: per-vertex loops over adjacency lists with
// per-edge user-defined functions (gather -> edge-UDF -> scatter/reduce).
//
// This is the baseline the paper argues against (Section 2.2): identical
// mathematics to the global formulation, but expressed per vertex:
//
//   h_i^{l+1} = phi( h_i^l, ⊕_{j in N(i)} psi(h_i^l, h_j^l) )
//
// It serves two roles in this repo:
//   1. an independent oracle — the global-formulation layers must reproduce
//      it exactly (tests/test_models_forward.cpp);
//   2. the per-edge-UDF execution arm in the kernel benchmarks, mirroring
//      how DGL executes A-GNNs via local formulations.
//
// Forward pass only; the trainable local-formulation baseline (with the
// ghost-exchange communication pattern) is baseline/dist_local_engine.hpp.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/layer.hpp"
#include "core/model.hpp"
#include "core/workspace.hpp"
#include "obs/trace.hpp"

namespace agnn::baseline {

// One local-formulation layer forward, parameterized by the same Layer
// object the global engine uses (so weights are shared bit-for-bit).
// Scratch (projected features, norms, score vectors) comes from `ws`.
template <typename T>
void local_layer_forward(const Layer<T>& layer, const CsrMatrix<T>& adj,
                         const DenseMatrix<T>& h, Workspace<T>& ws,
                         DenseMatrix<T>& out) {
  AGNN_TRACE_SCOPE("local.layer_forward", kPhase);
  AGNN_ASSERT(&out != &h, "local forward: out must not alias h");
  // The single-head DistDGL stand-in: it refuses more heads rather than
  // run the first alone.
  AGNN_ASSERT(layer.heads() == 1, "local forward runs one attention head, the layer has " +
                                      std::to_string(layer.heads()));
  const index_t n = adj.rows();
  const index_t k_in = h.cols();
  const index_t k_out = layer.out_features();
  const DenseMatrix<T>& w = layer.weights();
  DenseMatrix<T>& z = out;
  z.resize(n, k_out);
  z.fill(T(0));

  switch (layer.kind()) {
    case ModelKind::kGCN: {
      // h_i' = W^T sum_j Â_ij h_j, vertex by vertex.
#pragma omp parallel for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        std::vector<T> agg(static_cast<std::size_t>(k_in), T(0));
        for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
          const T* hj = h.data() + adj.col_at(e) * k_in;
          const T av = adj.val_at(e);
          for (index_t g = 0; g < k_in; ++g) agg[static_cast<std::size_t>(g)] += av * hj[g];
        }
        T* zi = z.data() + i * k_out;
        for (index_t g = 0; g < k_in; ++g) {
          const T* wg = w.data() + g * k_out;
          const T ag = agg[static_cast<std::size_t>(g)];
          for (index_t o = 0; o < k_out; ++o) zi[o] += ag * wg[o];
        }
      }
      break;
    }
    case ModelKind::kVA: {
      // psi(h_i, h_j) = <h_i, h_j> h_j, per edge; then project with W.
#pragma omp parallel for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        const T* hi = h.data() + i * k_in;
        std::vector<T> agg(static_cast<std::size_t>(k_in), T(0));
        for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
          const T* hj = h.data() + adj.col_at(e) * k_in;
          T score = T(0);
          for (index_t g = 0; g < k_in; ++g) score += hi[g] * hj[g];
          score *= adj.val_at(e);
          for (index_t g = 0; g < k_in; ++g) agg[static_cast<std::size_t>(g)] += score * hj[g];
        }
        T* zi = z.data() + i * k_out;
        for (index_t g = 0; g < k_in; ++g) {
          const T* wg = w.data() + g * k_out;
          const T ag = agg[static_cast<std::size_t>(g)];
          for (index_t o = 0; o < k_out; ++o) zi[o] += ag * wg[o];
        }
      }
      break;
    }
    case ModelKind::kAGNN: {
      // psi = cosine(h_i, h_j) h_j per edge.
      auto norms_h = ws.acquire_vec(n);
      std::vector<T>& norms = *norms_h;
      for (index_t i = 0; i < n; ++i) {
        const T* hi = h.data() + i * k_in;
        T acc = T(0);
        for (index_t g = 0; g < k_in; ++g) acc += hi[g] * hi[g];
        norms[static_cast<std::size_t>(i)] = std::sqrt(acc);
      }
#pragma omp parallel for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        const T* hi = h.data() + i * k_in;
        const T ni = norms[static_cast<std::size_t>(i)];
        std::vector<T> agg(static_cast<std::size_t>(k_in), T(0));
        for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
          const index_t j = adj.col_at(e);
          const T* hj = h.data() + j * k_in;
          T dot = T(0);
          for (index_t g = 0; g < k_in; ++g) dot += hi[g] * hj[g];
          const T denom = ni * norms[static_cast<std::size_t>(j)];
          const T score = adj.val_at(e) * (denom > T(0) ? dot / denom : T(0));
          for (index_t g = 0; g < k_in; ++g) agg[static_cast<std::size_t>(g)] += score * hj[g];
        }
        T* zi = z.data() + i * k_out;
        for (index_t g = 0; g < k_in; ++g) {
          const T* wg = w.data() + g * k_out;
          const T ag = agg[static_cast<std::size_t>(g)];
          for (index_t o = 0; o < k_out; ++o) zi[o] += ag * wg[o];
        }
      }
      break;
    }
    case ModelKind::kGIN: {
      // h_i' = MLP((1+eps) h_i + sum_j h_j), vertex by vertex.
      const DenseMatrix<T>& w2 = layer.weights2();
      const T self_w = T(1) + layer.gin_epsilon();
#pragma omp parallel for schedule(dynamic, 64)
      for (index_t i = 0; i < n; ++i) {
        std::vector<T> agg(static_cast<std::size_t>(k_in), T(0));
        const T* hi = h.data() + i * k_in;
        for (index_t g = 0; g < k_in; ++g) {
          agg[static_cast<std::size_t>(g)] = self_w * hi[g];
        }
        for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
          const T* hj = h.data() + adj.col_at(e) * k_in;
          const T av = adj.val_at(e);
          for (index_t g = 0; g < k_in; ++g) agg[static_cast<std::size_t>(g)] += av * hj[g];
        }
        std::vector<T> hidden(static_cast<std::size_t>(k_out), T(0));
        for (index_t g = 0; g < k_in; ++g) {
          const T* wg = w.data() + g * k_out;
          const T ag = agg[static_cast<std::size_t>(g)];
          for (index_t o = 0; o < k_out; ++o) hidden[static_cast<std::size_t>(o)] += ag * wg[o];
        }
        for (auto& v : hidden) v = apply_activation(layer.mlp_activation(), v, T(0.01));
        T* zi = z.data() + i * k_out;
        for (index_t g = 0; g < k_out; ++g) {
          const T* w2g = w2.data() + g * k_out;
          const T hg = hidden[static_cast<std::size_t>(g)];
          for (index_t o = 0; o < k_out; ++o) zi[o] += hg * w2g[o];
        }
      }
      break;
    }
    case ModelKind::kGAT: {
      // The textbook GAT local formulation (Section 1): per-vertex softmax
      // over per-edge scores a^T [W h_i || W h_j].
      const std::span<const T> a_all(layer.attention_params());
      const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_out));
      const auto a2 = a_all.subspan(static_cast<std::size_t>(k_out));
      const T slope = layer.attention_slope();
      // Projected features W h_j, recomputed per vertex's use in the pure
      // local style would be O(m k^2); like DGL, precompute per vertex once.
      auto hp_h = ws.acquire_dense(n, k_out);
      matmul(h, w, *hp_h);
      const DenseMatrix<T>& hp = *hp_h;
      auto s1_h = ws.acquire_vec(n);
      auto s2_h = ws.acquire_vec(n);
      std::vector<T>& s1 = *s1_h;
      std::vector<T>& s2 = *s2_h;
      for (index_t i = 0; i < n; ++i) {
        const T* hpi = hp.data() + i * k_out;
        T d1 = T(0), d2 = T(0);
        for (index_t g = 0; g < k_out; ++g) {
          d1 += hpi[g] * a1[static_cast<std::size_t>(g)];
          d2 += hpi[g] * a2[static_cast<std::size_t>(g)];
        }
        s1[static_cast<std::size_t>(i)] = d1;
        s2[static_cast<std::size_t>(i)] = d2;
      }
#pragma omp parallel
      {
        std::vector<T> scores;
#pragma omp for schedule(dynamic, 64)
        for (index_t i = 0; i < n; ++i) {
          const index_t b = adj.row_begin(i), e = adj.row_end(i);
          if (b == e) continue;
          scores.resize(static_cast<std::size_t>(e - b));
          T mx = -std::numeric_limits<T>::infinity();
          for (index_t t = b; t < e; ++t) {
            const T c = s1[static_cast<std::size_t>(i)] +
                        s2[static_cast<std::size_t>(adj.col_at(t))];
            const T lrelu = (c > T(0) ? c : slope * c) * adj.val_at(t);
            scores[static_cast<std::size_t>(t - b)] = lrelu;
            mx = std::max(mx, lrelu);
          }
          T sum = T(0);
          for (auto& s : scores) {
            s = std::exp(s - mx);
            sum += s;
          }
          const T inv = T(1) / sum;
          T* zi = z.data() + i * k_out;
          for (index_t t = b; t < e; ++t) {
            const T alpha = scores[static_cast<std::size_t>(t - b)] * inv;
            const T* hpj = hp.data() + adj.col_at(t) * k_out;
            for (index_t g = 0; g < k_out; ++g) zi[g] += alpha * hpj[g];
          }
        }
      }
      break;
    }
  }
  activate(layer.activation(), z, z, T(0.01));  // in place
}

template <typename T>
DenseMatrix<T> local_layer_forward(const Layer<T>& layer, const CsrMatrix<T>& adj,
                                   const DenseMatrix<T>& h) {
  Workspace<T> ws;
  DenseMatrix<T> out;
  local_layer_forward(layer, adj, h, ws, out);
  return out;
}

// Full local-formulation inference for a model. Feature buffers ping-pong
// between two pooled matrices sized for the widest layer.
template <typename T>
void local_infer(const GnnModel<T>& model, const CsrMatrix<T>& adj,
                 const DenseMatrix<T>& x, Workspace<T>& ws,
                 DenseMatrix<T>& h_out) {
  if (model.num_layers() == 1) {
    local_layer_forward(model.layer(0), adj, x, ws, h_out);
    return;
  }
  auto buf0 = ws.acquire_dense(x.rows(), model.max_layer_width());
  auto buf1 = ws.acquire_dense(x.rows(), model.max_layer_width());
  const DenseMatrix<T>* src = &x;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    const bool last = (l + 1 == model.num_layers());
    DenseMatrix<T>* dst = last ? &h_out : (l % 2 == 0 ? &*buf0 : &*buf1);
    local_layer_forward(model.layer(l), adj, *src, ws, *dst);
    src = dst;
  }
}

template <typename T>
DenseMatrix<T> local_infer(const GnnModel<T>& model, const CsrMatrix<T>& adj,
                           const DenseMatrix<T>& x) {
  Workspace<T> ws;
  DenseMatrix<T> h;
  local_infer(model, adj, x, ws, h);
  return h;
}

}  // namespace agnn::baseline
