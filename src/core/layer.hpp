// A single GNN layer in the global tensor formulation, for all four models:
//
//   VA    Z = (A ⊙ H H^T) H W                                    (Section 4.1)
//   AGNN  Z = (A ⊙ (H H^T ⊘ n n^T)) H W
//   GAT   Z = sm(A ⊙ LeakyReLU(s1 1^T + 1 s2^T)) H W,  s = (HW)[a1; a2]
//         per attention head (W_h, a_h), heads concatenated or averaged
//   GCN   Z = Â H W                                    (the C-GNN special case)
//   GIN   Z = MLP((A + (1+eps) I) H),  MLP(X) = sigma_mlp(X W) W2
//         (the MLP-as-Phi case of Section 4.4; the (1+eps) self-term is
//          applied by the layer, so the caller passes the plain adjacency)
//
// followed by H_out = sigma(Z). The backward pass implements the paper's
// Eq. (6)–(7): given G = dL/dZ of this layer it returns dW, da, and
// Gamma = dL/dH_in; the model loop then forms the previous layer's
// G^{l-1} = sigma'(Z^{l-1}) ⊙ Gamma. VA backward follows the paper's
// Eq. (11)–(13) literally; AGNN and GAT backward are derived in this repo
// (the paper defers them to its technical report) and are validated against
// finite differences in tests/test_gradcheck.cpp.
//
// Memory discipline (DESIGN.md §8): the workspace-threaded entry points
// write results into caller-owned storage, reuse the LayerCache slots'
// backing storage in place across steps, and draw every transient through
// the Workspace pool — a steady-state training step allocates nothing. The
// by-value signatures are thin wrappers over the same code paths.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/activations.hpp"
#include "core/workspace.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/fused.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"

namespace agnn {

enum class ModelKind { kVA, kAGNN, kGAT, kGCN, kGIN };

inline const char* to_string(ModelKind m) {
  switch (m) {
    case ModelKind::kVA: return "VA";
    case ModelKind::kAGNN: return "AGNN";
    case ModelKind::kGAT: return "GAT";
    case ModelKind::kGCN: return "GCN";
    case ModelKind::kGIN: return "GIN";
  }
  return "?";
}

// Intermediate tensors cached by the forward pass for reuse in backward
// (training mode). Inference mode leaves this empty — the --inference
// execution of the paper's artifact, which stores no intermediates.
//
// The slots are plain members (not pool handles) so they stay valid between
// forward and backward; the forward pass overwrites them in place, so their
// backing storage is reused for the lifetime of the cache — engines keep
// caches as persistent members and reach a zero-allocation steady state.
template <typename T>
struct LayerCache {
  DenseMatrix<T> h_in;       // H^l (post-dropout if dropout is active)
  DenseMatrix<T> z;          // Z^l (pre-activation)
  DenseMatrix<T> dropout_mask;  // inverted-dropout multiplier (empty if off)
  CsrMatrix<T> psi;          // Psi(A, H) — attention matrix (VA, AGNN)
  DenseMatrix<T> psi_h;      // the dW operand: Psi H (VA/AGNN), Â H (GCN),
                             // (A + (1+eps) I) H (GIN); unused by GAT
  // GIN-only:
  DenseMatrix<T> mlp_pre;    // X W1 (pre-activation of the MLP hidden layer)
  DenseMatrix<T> mlp_hidden; // sigma_mlp(X W1)
  // GAT-only:
  DenseMatrix<T> h_proj;     // H' = H W, head h in columns [h k, (h+1) k)
  struct Head {
    CsrMatrix<T> psi;         // Psi_h
    CsrMatrix<T> scores_pre;  // C_ij = s1_i + s2_j (pre-LeakyReLU)
    std::vector<T> s1, s2;    // per-vertex attention halves
  };
  std::vector<Head> heads;   // one per attention head
};

template <typename T>
struct LayerGrads {
  DenseMatrix<T> d_w;        // dL/dW   (Y^l of the paper)
  DenseMatrix<T> d_w2;       // dL/dW2  (GIN's second MLP matrix; else empty)
  std::vector<T> d_a;        // dL/da   (GAT only, heads in a's order; else empty)
  DenseMatrix<T> d_h_in;     // Gamma = dL/dH^l
};

// GAT runs `heads` attention heads of width k_out each. Head h owns the
// columns [h k_out, (h+1) k_out) of W and of H' = H W and the block
// [a1_h; a2_h] of a; the heads' outputs are concatenated (out_features() =
// heads k_out) or, with `average_heads`, averaged. Every head runs the
// one-head kernels on its column block, which at one head is the matrix
// itself, so a one-head layer makes exactly the calls of the plain layer.
template <typename T>
class Layer {
 public:
  Layer(ModelKind kind, index_t k_in, index_t k_out, Activation act, Rng& rng,
        T attention_slope = T(0.2), Activation mlp_activation = Activation::kRelu,
        T gin_epsilon = T(0), int heads = 1, bool average_heads = false)
      : kind_(kind),
        k_in_(k_in),
        k_out_(k_out),
        heads_(heads),
        average_heads_(average_heads),
        act_(act),
        attention_slope_(attention_slope),
        mlp_act_(mlp_activation),
        gin_epsilon_(gin_epsilon),
        w_(k_in, heads * k_out) {
    AGNN_ASSERT(heads >= 1, "layer: need at least one attention head");
    AGNN_ASSERT(heads == 1 || kind == ModelKind::kGAT,
                "layer: only GAT has attention heads");
    if (kind_ != ModelKind::kGAT) w_.fill_glorot(rng);
    if (kind_ == ModelKind::kGAT) {
      // Head by head, W_h (Glorot over k_in x k_out) then a_h: the draws of
      // a one-head layer, repeated.
      a_.resize(static_cast<std::size_t>(2 * heads * k_out));
      const double w_limit = std::sqrt(6.0 / static_cast<double>(k_in + k_out));
      const double a_limit = std::sqrt(6.0 / static_cast<double>(2 * k_out + 1));
      for (int hd = 0; hd < heads; ++hd) {
        for (index_t i = 0; i < k_in; ++i) {
          for (index_t j = 0; j < k_out; ++j) {
            w_(i, hd * k_out + j) = static_cast<T>(rng.next_uniform(-w_limit, w_limit));
          }
        }
        for (T& v : std::span<T>(a_).subspan(static_cast<std::size_t>(2 * hd * k_out),
                                             static_cast<std::size_t>(2 * k_out))) {
          v = static_cast<T>(rng.next_uniform(-a_limit, a_limit));
        }
      }
    }
    if (kind_ == ModelKind::kGIN) {
      // MLP(X) = sigma_mlp(X W) W2, hidden width = k_out.
      w2_ = DenseMatrix<T>(k_out, k_out);
      w2_.fill_glorot(rng);
    }
  }

  ModelKind kind() const { return kind_; }
  index_t in_features() const { return k_in_; }
  index_t out_features() const { return average_heads_ ? k_out_ : heads_ * k_out_; }
  int heads() const { return heads_; }
  bool average_heads() const { return average_heads_; }
  index_t head_features() const { return k_out_; }
  Activation activation() const { return act_; }
  T attention_slope() const { return attention_slope_; }

  DenseMatrix<T>& weights() { return w_; }
  const DenseMatrix<T>& weights() const { return w_; }
  DenseMatrix<T>& weights2() { return w2_; }
  const DenseMatrix<T>& weights2() const { return w2_; }
  std::vector<T>& attention_params() { return a_; }
  const std::vector<T>& attention_params() const { return a_; }
  Activation mlp_activation() const { return mlp_act_; }
  T gin_epsilon() const { return gin_epsilon_; }

  // GAT head h's block of a matrix whose heads sit side by side, times
  // alpha, in `buf`; at one head, `x` itself (no copy is made).
  const DenseMatrix<T>& head_block(const DenseMatrix<T>& x, int hd, T alpha,
                                   DenseMatrix<T>& buf) const {
    if (heads_ == 1) return x;
    copy_cols(x, hd * k_out_, k_out_, alpha, buf);
    return buf;
  }

  // Head h's output z_h into its block of Z (concatenated heads), or its
  // share of the mean.
  void combine_head(const DenseMatrix<T>& z_h, int hd, DenseMatrix<T>& z) const {
    axpy_cols(average_heads_ ? T(1) / static_cast<T>(heads_) : T(1), z_h,
              average_heads_ ? 0 : hd * k_out_, z);
  }

  // Head h's [a1_h; a2_h].
  std::pair<std::span<const T>, std::span<const T>> attention_halves(int hd) const {
    const auto k = static_cast<std::size_t>(k_out_);
    const auto a_h = std::span<const T>(a_).subspan(2 * k * static_cast<std::size_t>(hd), 2 * k);
    return {a_h.first(k), a_h.subspan(k)};
  }

  // The attention matrix Psi(A, H) this layer would use (GAT: that of
  // attention head `head`) — exposed for interpretability (which neighbors
  // does each vertex attend to?) and for external GraphBLAS-style
  // consumers. For GCN this is the (normalized) adjacency itself; for GIN
  // the plain adjacency (sum aggregation).
  CsrMatrix<T> attention_scores(const CsrMatrix<T>& adj, const DenseMatrix<T>& h,
                                int head = 0) const {
    switch (kind_) {
      case ModelKind::kGCN:
      case ModelKind::kGIN:
        return adj;
      case ModelKind::kVA:
        return psi_va(adj, h);
      case ModelKind::kAGNN:
        return psi_agnn(adj, h);
      case ModelKind::kGAT: {
        AGNN_ASSERT(head >= 0 && head < heads_, "attention_scores: no such head");
        DenseMatrix<T> w_h;
        const DenseMatrix<T> hp = matmul(h, head_block(w_, head, T(1), w_h));
        const auto [a1, a2] = attention_halves(head);
        return psi_gat<T>(adj, matvec(hp, a1), matvec(hp, a2), attention_slope_).psi;
      }
    }
    AGNN_ASSERT(false, "unknown model kind");
    return {};
  }

  // Forward pass into caller-owned `out`. If `cache` is null, runs in
  // inference mode (no intermediates stored; the deepest fused kernels are
  // used). All transients come from `ws`; nothing is allocated once the
  // pool and the cache slots are warm. `out` must not alias `h`.
  void forward(const CsrMatrix<T>& adj, const DenseMatrix<T>& h,
               LayerCache<T>* cache, Workspace<T>& ws, DenseMatrix<T>& out) const {
    AGNN_ASSERT(h.cols() == k_in_, "layer forward: feature width mismatch");
    AGNN_ASSERT(adj.rows() == h.rows() && adj.cols() == h.rows(),
                "layer forward: adjacency/feature shape mismatch");
    AGNN_ASSERT(&out != &h, "layer forward: out must not alias h");
    if (cache) {
      compute_z(adj, h, cache, ws, cache->z);
      activate(act_, cache->z, out, T(0.01));
      if (&cache->h_in != &h) cache->h_in = h;
    } else {
      compute_z(adj, h, nullptr, ws, out);
      activate(act_, out, out, T(0.01));  // in place
    }
  }

  DenseMatrix<T> forward(const CsrMatrix<T>& adj, const DenseMatrix<T>& h,
                         LayerCache<T>* cache) const {
    Workspace<T> ws;
    DenseMatrix<T> out;
    forward(adj, h, cache, ws, out);
    return out;
  }

  // Backward pass into caller-owned `out`. `g` is G^l = dL/dZ^l; `adj_t` is
  // adj.transposed() (the reversed graph of Section 5.2): every transpose
  // of a matrix with A's pattern (N, D, Psi) is read through its
  // source_edges() map, so A^T must come from transposed_into even where A
  // is symmetric. Scratch comes from `ws`; the LayerGrads slots are resized
  // in place, so persistent grads reach a zero-allocation steady state.
  void backward(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                const LayerCache<T>& cache, const DenseMatrix<T>& g,
                Workspace<T>& ws, LayerGrads<T>& out) const {
    AGNN_ASSERT(static_cast<index_t>(adj_t.source_edges().size()) == adj.nnz(),
                "Layer::backward: adj_t must be adj.transposed(), whose "
                "source_edges() map has one entry per edge of adj");
    if (kind_ != ModelKind::kGIN) out.d_w2.resize(0, 0);
    if (kind_ != ModelKind::kGAT) out.d_a.clear();
    switch (kind_) {
      case ModelKind::kGCN: backward_gcn(adj_t, cache, g, ws, out); return;
      case ModelKind::kVA: backward_va(adj, adj_t, cache, g, ws, out); return;
      case ModelKind::kAGNN: backward_agnn(adj, adj_t, cache, g, ws, out); return;
      case ModelKind::kGAT: backward_gat(adj, adj_t, cache, g, ws, out); return;
      case ModelKind::kGIN: backward_gin(adj_t, cache, g, ws, out); return;
    }
    AGNN_ASSERT(false, "unknown model kind");
  }

  LayerGrads<T> backward(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                         const LayerCache<T>& cache, const DenseMatrix<T>& g) const {
    Workspace<T> ws;
    LayerGrads<T> out;
    backward(adj, adj_t, cache, g, ws, out);
    return out;
  }

 private:
  void compute_z(const CsrMatrix<T>& adj, const DenseMatrix<T>& h,
                 LayerCache<T>* cache, Workspace<T>& ws, DenseMatrix<T>& z) const {
    const index_t n = adj.rows();
    switch (kind_) {
      case ModelKind::kGCN: {
        // Z = Â H W — SpMMM with association order chosen by cost.
        if (!cache) {
          auto scratch = ws.acquire_dense(n, std::max(k_in_, k_out_));
          spmmm(adj, h, w_, *scratch, z);
          return;
        }
        spmm(adj, h, cache->psi_h);
        matmul(cache->psi_h, w_, z);
        return;
      }
      case ModelKind::kGIN: {
        // X = (A + (1+eps) I) H, Z = sigma_mlp(X W) W2.
        PooledDense<T> xb, preb, hidb;
        DenseMatrix<T>* x;
        DenseMatrix<T>* pre;
        DenseMatrix<T>* hidden;
        if (cache) {
          x = &cache->psi_h;
          pre = &cache->mlp_pre;
          hidden = &cache->mlp_hidden;
        } else {
          xb = ws.acquire_dense(n, k_in_);
          preb = ws.acquire_dense(n, k_out_);
          hidb = ws.acquire_dense(n, k_out_);
          x = &*xb;
          pre = &*preb;
          hidden = &*hidb;
        }
        spmm(adj, h, *x);
        axpy(T(1) + gin_epsilon_, h, *x);
        matmul(*x, w_, *pre);
        activate(mlp_act_, *pre, *hidden, T(0.01));
        matmul(*hidden, w2_, z);
        return;
      }
      case ModelKind::kVA: {
        if (!cache) {
          // Inference: deepest fusion — never materialize Psi.
          auto tmp = ws.acquire_dense(n, k_in_);
          fused_va_aggregate(adj, h, h, *tmp);
          matmul(*tmp, w_, z);
          return;
        }
        psi_va(adj, h, cache->psi);
        spmm(cache->psi, h, cache->psi_h);
        matmul(cache->psi_h, w_, z);
        return;
      }
      case ModelKind::kAGNN: {
        auto norms = ws.acquire_vec(n);
        row_l2_norms(h, *norms);
        if (cache) {
          psi_agnn(adj, h, norms.cspan(), cache->psi);
          spmm(cache->psi, h, cache->psi_h);
          matmul(cache->psi_h, w_, z);
          return;
        }
        auto psi = ws.acquire_csr(adj.rows(), adj.cols(), adj.nnz());
        psi_agnn(adj, h, norms.cspan(), *psi);
        auto ph = ws.acquire_dense(n, k_in_);
        spmm(*psi, h, *ph);
        matmul(*ph, w_, z);
        return;
      }
      case ModelKind::kGAT: {
        // One GEMM projects every head; head h then aggregates its block
        // of H' into its block of Z, or adds its share of the mean.
        PooledDense<T> hpb, hp_hb, z_hb;
        if (!cache) hpb = ws.acquire_dense(n, w_.cols());
        DenseMatrix<T>& hp = cache ? cache->h_proj : *hpb;
        matmul(h, w_, hp);
        if (cache) cache->heads.resize(static_cast<std::size_t>(heads_));
        if (heads_ > 1) {
          z.resize(n, out_features());
          z.fill(T(0));
          hp_hb = ws.acquire_dense(n, k_out_);
          z_hb = ws.acquire_dense(n, k_out_);
        }
        for (int hd = 0; hd < heads_; ++hd) {
          const DenseMatrix<T>& hp_h = head_block(hp, hd, T(1), hp_hb.get());
          DenseMatrix<T>& z_h = heads_ == 1 ? z : *z_hb;
          const auto [a1, a2] = attention_halves(hd);
          if (!cache) {
            auto s1 = ws.acquire_vec(n);
            auto s2 = ws.acquire_vec(n);
            matvec(hp_h, a1, *s1);
            matvec(hp_h, a2, *s2);
            fused_gat_aggregate(adj, s1.cspan(), s2.cspan(), attention_slope_, hp_h,
                                z_h);
          } else {
            auto& c = cache->heads[static_cast<std::size_t>(hd)];
            matvec(hp_h, a1, c.s1);
            matvec(hp_h, a2, c.s2);
            psi_gat<T>(adj, c.s1, c.s2, attention_slope_, c.scores_pre, c.psi);
            spmm(c.psi, hp_h, z_h);
          }
          if (heads_ > 1) combine_head(z_h, hd, z);
        }
        return;
      }
    }
    AGNN_ASSERT(false, "unknown model kind");
  }

  void backward_gcn(const CsrMatrix<T>& adj_t, const LayerCache<T>& cache,
                    const DenseMatrix<T>& g, Workspace<T>& ws,
                    LayerGrads<T>& out) const {
    matmul_tn(cache.psi_h, g, out.d_w);          // (Â H)^T G
    auto gw = ws.acquire_dense(g.rows(), k_in_); // G W^T
    matmul_nt(g, w_, *gw);
    spmm(adj_t, *gw, out.d_h_in);                // Â^T (G W^T)
  }

  // GIN backward: dW2 = hidden^T G, dHidden = G W2^T,
  // dPre = dHidden ⊙ sigma_mlp'(pre), dW = X^T dPre, dX = dPre W^T,
  // Gamma = A^T dX + (1+eps) dX.
  void backward_gin(const CsrMatrix<T>& adj_t, const LayerCache<T>& cache,
                    const DenseMatrix<T>& g, Workspace<T>& ws,
                    LayerGrads<T>& out) const {
    matmul_tn(cache.mlp_hidden, g, out.d_w2);
    auto d_pre = ws.acquire_dense(g.rows(), k_out_);
    matmul_nt(g, w2_, *d_pre);  // dHidden
    activation_backward(mlp_act_, cache.mlp_pre, *d_pre, *d_pre, T(0.01));  // in place
    matmul_tn(cache.psi_h, *d_pre, out.d_w);
    auto d_x = ws.acquire_dense(g.rows(), k_in_);
    matmul_nt(*d_pre, w_, *d_x);
    spmm(adj_t, *d_x, out.d_h_in);
    axpy(T(1) + gin_epsilon_, *d_x, out.d_h_in);
  }

  // Paper Eq. (11)–(13): M = G W^T, N = A ⊙ (M H^T),
  // Gamma = N_+ H + (A^T ⊙ H_x) M,  Y = H^T (A^T ⊙ H_x) G = (Psi H)^T G.
  void backward_va(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                   const LayerCache<T>& cache, const DenseMatrix<T>& g,
                   Workspace<T>& ws, LayerGrads<T>& out) const {
    const DenseMatrix<T>& h = cache.h_in;
    matmul_tn(cache.psi_h, g, out.d_w);
    auto m = ws.acquire_dense(g.rows(), k_in_);
    matmul_nt(g, w_, *m);
    // N = A ⊙ (M H^T): an SDDMM — the MSpMM pattern of the backward DAG.
    auto n = ws.acquire_csr(adj.rows(), adj.cols(), adj.nnz());
    sddmm(adj, *m, h, *n);
    // Gamma = (N + N^T) H + Psi^T M. Computed as SpMMs instead of
    // materializing N_+'s union pattern; N^T and Psi^T = A^T ⊙ H_x are read
    // through adj_t's map, Psi from the forward cache.
    spmm(*n, h, out.d_h_in);
    spmm_accumulate_transposed(adj_t, n->vals(), h, out.d_h_in);
    spmm_accumulate_transposed(adj_t, cache.psi.vals(), *m, out.d_h_in);
  }

  // AGNN backward (derivation in DESIGN.md / README):
  //   D = A ⊙ (M H^T)   with M = G W^T          (dL/d cosine scores)
  //   Gamma = Psi^T M
  //         + diag(1/n) [ (D + D^T) Ĥ - diag(rowsum(D ⊙ Ĉ) + colsum(D ⊙ Ĉ)) Ĥ ]
  // where Ĥ has unit-normalized rows and Ĉ holds the cosine values.
  void backward_agnn(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                     const LayerCache<T>& cache, const DenseMatrix<T>& g,
                     Workspace<T>& ws, LayerGrads<T>& out) const {
    const DenseMatrix<T>& h = cache.h_in;
    matmul_tn(cache.psi_h, g, out.d_w);
    auto m = ws.acquire_dense(g.rows(), k_in_);
    matmul_nt(g, w_, *m);
    auto d = ws.acquire_csr(adj.rows(), adj.cols(), adj.nnz());
    sddmm(adj, *m, h, *d);

    auto norms = ws.acquire_vec(h.rows());
    auto h_hat = ws.acquire_dense(h.rows(), h.cols());
    unit_rows(h, *norms, *h_hat);
    // Cosine matrix Ĉ on the adjacency pattern: Psi values divided by A
    // values (identical when A is binary, which attention models use).
    auto cos = ws.acquire_csr_like(cache.psi);
    {
      auto cv = cos->vals_mutable();
      const auto av = adj.vals();
#pragma omp parallel for schedule(static)
      for (index_t e = 0; e < cos->nnz(); ++e) {
        const T a = av[static_cast<std::size_t>(e)];
        cv[static_cast<std::size_t>(e)] =
            a != T(0) ? cv[static_cast<std::size_t>(e)] / a : T(0);
      }
    }
    // The projection coefficient rowsum(D ⊙ Ĉ) + colsum(D ⊙ Ĉ) per vertex.
    auto dc = ws.acquire_csr(adj.rows(), adj.cols(), adj.nnz());
    hadamard_same_pattern(*d, *cos, *dc);
    auto coef = ws.acquire_vec(adj.rows());
    sparse_row_sums(*dc, *coef);
    auto cs = ws.acquire_vec(adj.cols());
    sparse_col_sums(*dc, *cs);
    for (std::size_t i = 0; i < coef->size(); ++i) (*coef)[i] += (*cs)[i];

    DenseMatrix<T>& gamma = out.d_h_in;
    spmm(*d, *h_hat, gamma);
    spmm_accumulate_transposed(adj_t, d->vals(), *h_hat, gamma);
    project_rows(gamma, coef.cspan(), *h_hat, norms.cspan());
    spmm_accumulate_transposed(adj_t, cache.psi.vals(), *m, gamma);
  }

  // GAT backward, per head h with G_h its block of G (concatenated heads)
  // or G / heads (averaged) and H'_h its block of H':
  //   dH'_h = Psi_h^T G_h + ds1 a1_h^T + ds2 a2_h^T,
  //   dPsi = A-sampled G_h H'_h^T, dE = softmax-Jacobian(dPsi),
  //   dC = dE ⊙ A ⊙ LeakyReLU'(C), ds1 = row-sums(dC), ds2 = col-sums(dC),
  //   da_h = [H'_h^T ds1; H'_h^T ds2];
  // then, over every head's columns at once, dW = H^T dH', Gamma = dH' W^T.
  void backward_gat(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                    const LayerCache<T>& cache, const DenseMatrix<T>& g,
                    Workspace<T>& ws, LayerGrads<T>& out) const {
    const DenseMatrix<T>& h = cache.h_in;
    const index_t n = g.rows();
    out.d_a.resize(a_.size());
    auto d_hp = ws.acquire_dense(n, w_.cols());
    PooledDense<T> g_hb, hp_hb, d_hp_hb;
    if (heads_ > 1) {
      d_hp->fill(T(0));
      g_hb = ws.acquire_dense(n, k_out_);
      hp_hb = ws.acquire_dense(n, k_out_);
      d_hp_hb = ws.acquire_dense(n, k_out_);
    }
    const T g_scale = average_heads_ ? T(1) / static_cast<T>(heads_) : T(1);
    for (int hd = 0; hd < heads_; ++hd) {
      const DenseMatrix<T>& g_h =
          head_block(g, average_heads_ ? 0 : hd, g_scale, g_hb.get());
      const DenseMatrix<T>& hp = head_block(cache.h_proj, hd, T(1), hp_hb.get());
      DenseMatrix<T>& d_hp_h = heads_ == 1 ? *d_hp : *d_hp_hb;
      const auto& c_h = cache.heads[static_cast<std::size_t>(hd)];
      const CsrMatrix<T>& s = c_h.psi;

      // dPsi sampled on the adjacency pattern (pattern of s, values unused).
      auto d_psi = ws.acquire_csr(s.rows(), s.cols(), s.nnz());
      sddmm_unweighted(s, g_h, hp, *d_psi);
      // dE, then dC in place: dC = dE ⊙ A ⊙ LeakyReLU'(C) — the A values
      // were folded into E during forward, so they reappear as a factor
      // here (1 for binary adjacency).
      auto d_c = ws.acquire_csr(s.rows(), s.cols(), s.nnz());
      row_softmax_backward(s, *d_psi, *d_c);
      {
        auto v = d_c->vals_mutable();
        const auto c = c_h.scores_pre.vals();
        const auto av = adj.vals();
#pragma omp parallel for schedule(static)
        for (index_t e = 0; e < d_c->nnz(); ++e) {
          const T ce = c[static_cast<std::size_t>(e)];
          v[static_cast<std::size_t>(e)] *=
              av[static_cast<std::size_t>(e)] * (ce > T(0) ? T(1) : attention_slope_);
        }
      }
      auto ds1 = ws.acquire_vec(s.rows());
      sparse_row_sums(*d_c, *ds1);
      auto ds2 = ws.acquire_vec(s.cols());
      sparse_col_sums(*d_c, *ds2);

      spmm_transposed(adj_t, s.vals(), g_h, d_hp_h);
      const auto [a1, a2] = attention_halves(hd);
      add_outer_inplace(d_hp_h, ds1.cspan(), a1);
      add_outer_inplace(d_hp_h, ds2.cspan(), a2);

      auto da1 = ws.acquire_vec(k_out_);
      matvec_tn(hp, ds1.cspan(), *da1);
      auto da2 = ws.acquire_vec(k_out_);
      matvec_tn(hp, ds2.cspan(), *da2);
      const auto da = out.d_a.begin() + 2 * hd * k_out_;
      std::copy(da1->begin(), da1->end(), da);
      std::copy(da2->begin(), da2->end(), da + k_out_);
      if (heads_ > 1) axpy_cols(T(1), d_hp_h, hd * k_out_, *d_hp);
    }
    matmul_tn(h, *d_hp, out.d_w);
    matmul_nt(*d_hp, w_, out.d_h_in);
  }

  ModelKind kind_;
  index_t k_in_;
  index_t k_out_;  // per attention head
  int heads_;
  bool average_heads_;
  Activation act_;
  T attention_slope_;
  Activation mlp_act_;
  T gin_epsilon_;
  DenseMatrix<T> w_;
  DenseMatrix<T> w2_;  // GIN only
  std::vector<T> a_;
};

}  // namespace agnn
