// Distributed execution of the global tensor formulations (Section 6.3),
// generalized to the 1D / 1.5D / 2D / 3D distribution family.
//
// One engine runs every member: it writes the forward and backward of each
// model once, as a few global ops over the layout primitives of
// dist/layout.hpp (fetch rows into R, assemble the column operand C in
// stages, reduce row and column partials, move R rows back to the input
// layout V). The sparse blocks never move, so per layer a rank moves
// O(n k / sqrt(p) + k^2) words on the 1.5D grid — the Section 7.1 bound —
// and each member's own bound elsewhere (dist/volume_model.hpp replays the
// forward protocols byte for byte).
//
// Every backward follows one form: fetch G into R once and form M = G W^T
// locally; the row-side partials (VA, AGNN, GAT's ds1) are summed over the
// row family and moved to V, while every column-side term is summed on the
// C layout first — linear corrections such as GAT's ds2 a2^T and AGNN's
// norm projection included — so one column reduce per layer suffices.
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/workspace.hpp"
#include "dist/layout.hpp"
#include "obs/trace.hpp"
#include "tensor/sparse_core.hpp"

namespace agnn::dist {

// Per-layer intermediates cached by the forward pass (V, R, C as in
// dist/layout.hpp).
template <typename T>
struct DistLayerCache {
  DenseMatrix<T> h_v;           // H^l, the layer input
  DenseMatrix<T> h_r;           // H^l rows R (GIN, VA, AGNN)
  DenseMatrix<T> h_c;           // H^l rows C (GCN, GIN, VA, AGNN)
  DenseMatrix<T> z_v;           // Z^l
  CsrMatrix<T> psi;             // Psi block (VA, AGNN)
  CsrMatrix<T> cos;             // AGNN: cosine block (Psi before A-weighting)
  DenseMatrix<T> ph_r;          // (Psi H)_R; for GIN the full X = (A+(1+e)I)H
  DenseMatrix<T> mlp_pre_r;     // GIN: (X W)_R pre-activation
  DenseMatrix<T> mlp_hidden_r;  // GIN: sigma_mlp(X W)_R
  DenseMatrix<T> hp_v, hp_c;    // GAT: H' = H W (every head's block), rows V and C
  struct Head {
    CsrMatrix<T> psi;           // Psi_h block
    CsrMatrix<T> scores_pre;    // C block (pre-LeakyReLU)
    std::vector<T> s1_r, s2_c;
  };
  std::vector<Head> heads;      // GAT: one per attention head
};

template <typename T>
class DistEngine {
 public:
  using LayerCache = DistLayerCache<T>;
  using Stage = typename Layout<T>::Stage;

  struct StepResult {
    T loss = T(0);
  };

  // Collective constructor: every rank passes the same global adjacency, a
  // model replica (identical across ranks by construction: same config
  // seed) and the same grid shape. Block extraction is local; initial data
  // distribution is not charged, matching the paper's accounting.
  DistEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
             GnnModel<T>& model, const GridShape& shape)
      : policy_(shape.policy),
        layout_(make_layout(world, a_global, shape)),
        model_(model) {}

  // The grid `grid_for` routes this policy and rank count to.
  DistEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
             GnnModel<T>& model, DistPolicy policy, int depth_hint = 0)
      : DistEngine(world, a_global, model,
                   grid_for(policy, world.size(), depth_hint)) {}

  // Full forward pass; x_global is the (replicated) input feature matrix.
  // Returns the final features on the rank's input block. If `caches` is
  // null, runs in inference mode.
  DenseMatrix<T> forward(const DenseMatrix<T>& x_global,
                         std::vector<LayerCache>* caches) {
    AGNN_TRACE_SCOPE("dist.forward", kPhase);
    const BlockRange vb = layout_->input_rows();
    DenseMatrix<T> h = x_global.slice_rows(vb.begin, vb.end);
    if (caches) caches->resize(model_.num_layers());  // keeps slot storage warm
    for (std::size_t l = 0; l < model_.num_layers(); ++l) {
      h = layer_forward(model_.layer(l), h, caches ? &(*caches)[l] : nullptr);
    }
    return h;
  }

  // Inference with a final gather of the global output (for validation and
  // examples; the gather itself is a debug output path).
  DenseMatrix<T> infer(const DenseMatrix<T>& x_global) {
    return layout_->gather(forward(x_global, nullptr));
  }

  // One full-batch training step. Labels and mask are replicated (like the
  // input features). Gradients are globally allreduced, so the per-rank
  // model replicas stay bitwise in sync.
  StepResult train_step(const DenseMatrix<T>& x_global,
                        std::span<const index_t> labels, Optimizer<T>& opt,
                        std::span<const std::uint8_t> mask = {}) {
    AGNN_TRACE_SCOPE("dist.train_step", kPhase);
    const DenseMatrix<T> h = forward(x_global, &caches_);

    // Loss on the input block, normalized by the global active count.
    index_t active = 0;
    for (index_t i = 0; i < static_cast<index_t>(labels.size()); ++i) {
      if (mask.empty() || mask[static_cast<std::size_t>(i)]) ++active;
    }
    const BlockRange vb = layout_->input_rows();
    const auto b = static_cast<std::size_t>(vb.begin);
    const auto len = static_cast<std::size_t>(vb.size());
    LossResult<T> loss = softmax_cross_entropy(
        h, labels.subspan(b, len), mask.empty() ? mask : mask.subspan(b, len),
        active);
    // Scalar loss: ranks holding a replica of a block must not double-count.
    std::vector<T> loss_buf{layout_->owns_input_copy() ? loss.value : T(0)};
    world().allreduce_sum(std::span<T>(loss_buf));

    // G^L = nabla_H L ⊙ sigma'(Z^L), locally on the input block.
    const auto& last = model_.layer(model_.num_layers() - 1);
    DenseMatrix<T> g =
        activation_backward(last.activation(), caches_.back().z_v, loss.grad);
    std::vector<LayerGrads<T>> grads(model_.num_layers());
    for (std::size_t l = model_.num_layers(); l-- > 0;) {
      DenseMatrix<T> gamma = layer_backward(model_.layer(l), caches_[l], g, grads[l]);
      if (l > 0) {
        g = activation_backward(model_.layer(l - 1).activation(),
                                caches_[l - 1].z_v, gamma);
      }
    }
    model_.apply_gradients(grads, opt);
    return {loss_buf[0]};
  }

  // The world communicator (exposed so the recovery loop can barrier and
  // rendezvous on the same group the engine trains over).
  comm::Communicator& world() { return layout_->world(); }
  DistPolicy policy() const { return policy_; }
  index_t num_vertices() const { return layout_->num_vertices(); }
  Workspace<T>& workspace() { return ws_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats(); }

 private:
  // ---- forward ---------------------------------------------------------------

  DenseMatrix<T> layer_forward(const Layer<T>& layer, const DenseMatrix<T>& h_v,
                               LayerCache* cache) {
    AGNN_TRACE_SCOPE("dist.layer_forward", kPhase);
    // Parameters are replicated: broadcast from rank 0 (values are already
    // identical; this charges the O(k^2) parameter-movement term).
    DenseMatrix<T> w = layer.weights();
    world().broadcast(w.flat(), 0);
    std::vector<T> att = layer.attention_params();
    if (!att.empty()) world().broadcast(std::span<T>(att), 0);
    DenseMatrix<T> w2 = layer.weights2();
    if (!w2.empty()) world().broadcast(w2.flat(), 0);

    // All intermediates live in the cache slots (in inference mode, one
    // cache every layer shares), overwritten in place across steps.
    LayerCache& c = cache ? *cache : infer_cache_;
    Layout<T>& lay = *layout_;
    const CsrMatrix<T>& a = lay.adjacency();
    // The stage SpMMs of GCN, GIN, VA and AGNN accumulate into (Psi H)_R.
    if (layer.kind() != ModelKind::kGAT) {
      c.ph_r.resize(a.rows(), h_v.cols());
      c.ph_r.set_zero();
    }

    switch (layer.kind()) {
      case ModelKind::kGCN:
        staged(h_v, c.h_c, "summa.stage_spmm",
               [&](const Stage& s) { stage_spmm(a, s, c.h_c, c.ph_r); });
        break;
      case ModelKind::kGIN:
        // Plain-sum aggregation over A; the (1+eps) self term needs H_R.
        lay.fetch_rows(h_v, c.h_r);
        staged(h_v, c.h_c, "summa.stage_spmm",
               [&](const Stage& s) { stage_spmm(a, s, c.h_c, c.ph_r); });
        break;
      case ModelKind::kVA:
        lay.fetch_rows(h_v, c.h_r);
        // The stages partition each row's edges, so the stage that writes
        // an edge's value also copies its column index.
        staged(h_v, c.h_c, "summa.stage_spmm",
               [&, pc = c.psi.adopt_structure(a).data()](const Stage& s) {
          // Psi = A ⊙ (H H^T) sampled on the stage's edges, then the stage
          // SpMM: both touch only the just-landed rows of H_C.
          T* pv = c.psi.vals_mutable().data();
          stage_dots(a, s, c.h_r, c.h_c,
                     [pc, pv, cols = a.col_idx().data(), av = a.vals().data()](
                         index_t, index_t e, T dot) {
                       pc[e] = cols[e];
                       pv[e] = av[e] * dot;
                     });
          stage_spmm(c.psi, s, c.h_c, c.ph_r);
        });
        break;
      case ModelKind::kAGNN: {
        lay.fetch_rows(h_v, c.h_r);
        index_t* cos_cols = c.cos.adopt_structure(a).data();
        index_t* psi_cols = c.psi.adopt_structure(a).data();
        auto nr = ws_.acquire_vec(a.rows());
        auto nc = ws_.acquire_vec(a.cols());
        inv_row_norms(c.h_r, 0, c.h_r.rows(), std::span<T>(*nr));
        staged(h_v, c.h_c, "summa.stage_spmm", [&](const Stage& s) {
          // Column inverse norms become available as each panel lands.
          inv_row_norms(c.h_c, s.cols.begin, s.cols.end, std::span<T>(*nc));
          stage_dots(a, s, c.h_r, c.h_c,
                     [cos_cols, psi_cols, cv = c.cos.vals_mutable().data(),
                      pv = c.psi.vals_mutable().data(), av = a.vals().data(),
                      cols = a.col_idx().data(), nr = nr->data(),
                      nc = nc->data()](index_t i, index_t e, T dot) {
                       const T cos = dot * nr[i] * nc[cols[e]];
                       cos_cols[e] = psi_cols[e] = cols[e];
                       cv[e] = cos;
                       pv[e] = cos * av[e];
                     });
          stage_spmm(c.psi, s, c.h_c, c.ph_r);
        });
        break;
      }
      case ModelKind::kGAT: {
        // One GEMM and one assembly of H' serve every head; each head
        // scores its edges from its block of H' and aggregates that block
        // into its block of Z, or adds its share of the mean.
        const int heads = layer.heads();
        const auto k = static_cast<std::size_t>(layer.head_features());
        c.heads.resize(static_cast<std::size_t>(heads));
        DenseMatrix<T> hp_h;  // a head's block of H' (unused at one head)
        std::vector<std::vector<T>> s1_v(static_cast<std::size_t>(heads));
        {
          comm::ComputeRegion cr(world().stats());
          matmul(h_v, w, c.hp_v);
          for (int hd = 0; hd < heads; ++hd) {
            matvec(layer.head_block(c.hp_v, hd, T(1), hp_h),
                   layer.attention_halves(hd).first, s1_v[static_cast<std::size_t>(hd)]);
          }
        }
        // Each head's score blocks take A's structure; the stage that
        // writes an edge's values also copies its column index.
        std::vector<std::pair<index_t*, index_t*>> out_cols;
        for (int hd = 0; hd < heads; ++hd) {
          auto& ch = c.heads[static_cast<std::size_t>(hd)];
          lay.fetch_rows(s1_v[static_cast<std::size_t>(hd)], ch.s1_r);
          out_cols.emplace_back(ch.scores_pre.adopt_structure(a).data(),
                                ch.psi.adopt_structure(a).data());
          ch.s2_c.assign(static_cast<std::size_t>(a.cols()), T(0));
        }
        const T slope = layer.attention_slope();
        // The stages fill the raw E blocks; the softmax and the aggregation
        // SpMM need whole rows, so they run after the last stage.
        staged(c.hp_v, c.hp_c, "summa.stage_scores", [&](const Stage& s) {
          for (int hd = 0; hd < heads; ++hd) {
            auto& ch = c.heads[static_cast<std::size_t>(hd)];
            const std::span<const T> a2 = layer.attention_halves(hd).second;
            for (index_t x = s.cols.begin; x < s.cols.end; ++x) {
              const T* row = c.hp_c.data() + x * c.hp_c.cols() + hd * static_cast<index_t>(k);
              T acc = T(0);
              for (std::size_t f = 0; f < k; ++f) acc += row[f] * a2[f];
              ch.s2_c[static_cast<std::size_t>(x)] = acc;
            }
            const auto [pre_cols, psi_cols] = out_cols[static_cast<std::size_t>(hd)];
            auto pre = ch.scores_pre.vals_mutable();
            auto ev = ch.psi.vals_mutable();
            for_stage_rows(s, a.rows(), [&](index_t i, index_t e0, index_t e1) {
              const T s1i = ch.s1_r[static_cast<std::size_t>(i)];
              for (index_t e = e0; e < e1; ++e) {
                const T cv = s1i + ch.s2_c[static_cast<std::size_t>(a.col_at(e))];
                pre_cols[e] = psi_cols[e] = a.col_at(e);
                pre[static_cast<std::size_t>(e)] = cv;
                ev[static_cast<std::size_t>(e)] =
                    a.val_at(e) * (cv > T(0) ? cv : slope * cv);
              }
            });
          }
        });
        if (heads > 1) {
          c.ph_r.resize(a.rows(), layer.out_features());
          c.ph_r.set_zero();
        }
        DenseMatrix<T> z_hb;
        for (int hd = 0; hd < heads; ++hd) {
          auto& ch = c.heads[static_cast<std::size_t>(hd)];
          dist_row_softmax_inplace(ch.psi, lay, ws_);
          comm::ComputeRegion cr(world().stats());
          DenseMatrix<T>& z_h = heads == 1 ? c.ph_r : z_hb;
          spmm(ch.psi, layer.head_block(c.hp_c, hd, T(1), hp_h), z_h);
          if (heads > 1) layer.combine_head(z_h, hd, c.ph_r);
        }
        break;
      }
    }

    // Partial sums from every column block of the row complete (Psi H)_R.
    lay.reduce_rows(c.ph_r.flat());
    // Z in layout R: for GAT it is the reduced aggregate itself; for the
    // others a pooled buffer holds the projection.
    const DenseMatrix<T>* z_r = &c.ph_r;
    auto z_r_h = ws_.acquire_dense(a.rows(), layer.out_features());
    {
      comm::ComputeRegion cr(world().stats());
      if (layer.kind() == ModelKind::kGIN) {
        // X = (A H) + (1+eps) H, then the per-row MLP.
        axpy(T(1) + layer.gin_epsilon(), c.h_r, c.ph_r);
        matmul(c.ph_r, w, c.mlp_pre_r);
        activate(layer.mlp_activation(), c.mlp_pre_r, c.mlp_hidden_r, T(0.01));
        matmul(c.mlp_hidden_r, w2, *z_r_h);
        z_r = &*z_r_h;
      } else if (layer.kind() != ModelKind::kGAT) {
        matmul(c.ph_r, w, *z_r_h);
        z_r = &*z_r_h;
      }
    }
    // Redistribute Z to the input layout for the next layer.
    lay.to_input(*z_r, c.z_v);
    DenseMatrix<T> h_out;
    {
      comm::ComputeRegion cr(world().stats());
      activate(layer.activation(), c.z_v, h_out, T(0.01));
    }
    if (cache) c.h_v = h_v;
    return h_out;
  }

  // Assemble the column operand, running `fn` on each stage as a traced
  // kernel (`span` keeps the SUMMA stage names the trace tooling reads).
  template <typename Fn>
  void staged(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c, const char* span,
              Fn&& fn) {
    layout_->assemble_cols(x_v, x_c, [&](const Stage& s) {
      comm::ComputeRegion cr(world().stats());
      const obs::SpanScope scope(span, obs::SpanCategory::kKernel);
      fn(s);
    });
  }

  // Row-parallel loop over a stage: f(i, first edge, end edge) of each row.
  template <typename F>
  static void for_stage_rows(const Stage& s, index_t rows, F&& f) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < rows; ++i) f(i, s.begin(i), s.end(i));
  }

  // acc += Psi x_c over the stage's edges, through the sparse core's
  // row-register aggregate: each row's chain continues from the stages
  // before it.
  static void stage_spmm(const CsrMatrix<T>& psi, const Stage& s,
                         const DenseMatrix<T>& x_c, DenseMatrix<T>& acc) {
    const index_t k = x_c.cols();
    detail::with_sparse_core([&](auto core) {
      for_stage_rows(s, psi.rows(), [&](index_t i, index_t e0, index_t e1) {
        core.aggregate(x_c.data(), k, psi.col_idx().data(), e0, e1,
                       detail::own_values(psi), acc.data() + i * k, true);
      });
    });
  }

  // store(i, e, <x_r row i, x_c row col(e)>) for every edge e of the stage,
  // through the sparse core's edge-lane dot.
  template <typename Store>
  static void stage_dots(const CsrMatrix<T>& a, const Stage& s, const DenseMatrix<T>& x_r,
                         const DenseMatrix<T>& x_c, Store store) {
    const index_t k = x_r.cols();
    detail::with_sparse_core([&](auto core) {
      for_stage_rows(s, a.rows(), [&](index_t i, index_t e0, index_t e1) {
        core.edge_dots(x_r.data() + i * k, x_c.data(), k, a.col_idx().data(), e0, e1,
                       [&store, i](index_t e, T dot) { store(i, e, dot); });
      });
    });
  }

  // n[i] = 1 / |h_i|, or 0 for a zero row, for the rows [r0, r1) of h.
  static void inv_row_norms(const DenseMatrix<T>& h, index_t r0, index_t r1,
                            std::span<T> n) {
    row_l2_norms(h, r0, r1, n);
    for (index_t i = r0; i < r1; ++i) {
      T& v = n[static_cast<std::size_t>(i)];
      v = v > T(0) ? T(1) / v : T(0);
    }
  }

  // ---- backward --------------------------------------------------------------

  DenseMatrix<T> layer_backward(const Layer<T>& layer, const LayerCache& c,
                                const DenseMatrix<T>& g_v, LayerGrads<T>& grads) {
    AGNN_TRACE_SCOPE("dist.layer_backward", kPhase);
    DenseMatrix<T> g_r;
    layout_->fetch_rows(g_v, g_r);
    DenseMatrix<T> gamma_v;
    switch (layer.kind()) {
      case ModelKind::kGCN: gamma_v = backward_gcn(layer, c, g_r, grads); break;
      case ModelKind::kGIN: gamma_v = backward_gin(layer, c, g_r, grads); break;
      case ModelKind::kVA: gamma_v = backward_va(layer, c, g_r, grads); break;
      case ModelKind::kAGNN: gamma_v = backward_agnn(layer, c, g_r, grads); break;
      case ModelKind::kGAT: gamma_v = backward_gat(layer, c, g_r, grads); break;
    }
    // The parameter gradients hold this rank's share; summing them last
    // lets the replicas that skip the weight GEMMs run ahead meanwhile.
    world().allreduce_sum(grads.d_w.flat());
    if (!grads.d_w2.empty()) world().allreduce_sum(grads.d_w2.flat());
    if (!grads.d_a.empty()) world().allreduce_sum(std::span<T>(grads.d_a));
    return gamma_v;
  }

  DenseMatrix<T> backward_gcn(const Layer<T>& layer, const LayerCache& c,
                              const DenseMatrix<T>& g_r, LayerGrads<T>& grads) {
    grads.d_w = weight_grad_r(c.ph_r, g_r);
    DenseMatrix<T> col_c;
    {
      comm::ComputeRegion cr(world().stats());
      const DenseMatrix<T> m_r = matmul_nt(g_r, layer.weights());
      col_c = spmm(layout_->adjacency_t(), m_r);
    }
    return combine_partials(col_c, nullptr);
  }

  // GIN: dW2 = hidden^T G, dPre = (G W2^T) ⊙ sigma_mlp'(pre),
  // dW = X^T dPre, dX = dPre W^T, Gamma = A^T dX + (1+eps) dX.
  DenseMatrix<T> backward_gin(const Layer<T>& layer, const LayerCache& c,
                              const DenseMatrix<T>& g_r, LayerGrads<T>& grads) {
    grads.d_w2 = weight_grad_r(c.mlp_hidden_r, g_r);
    DenseMatrix<T> d_pre;
    {
      comm::ComputeRegion cr(world().stats());
      const DenseMatrix<T> d_hidden = matmul_nt(g_r, layer.weights2());
      d_pre = activation_backward(layer.mlp_activation(), c.mlp_pre_r, d_hidden,
                                  T(0.01));
    }
    grads.d_w = weight_grad_r(c.ph_r, d_pre);
    DenseMatrix<T> dx_r, col_c;
    {
      comm::ComputeRegion cr(world().stats());
      dx_r = matmul_nt(d_pre, layer.weights());
      col_c = spmm(layout_->adjacency_t(), dx_r);
    }
    DenseMatrix<T> gamma_v = combine_partials(col_c, nullptr);
    DenseMatrix<T> dx_v;
    layout_->to_input(dx_r, dx_v);
    comm::ComputeRegion cr(world().stats());
    axpy(T(1) + layer.gin_epsilon(), dx_v, gamma_v);
    return gamma_v;
  }

  DenseMatrix<T> backward_va(const Layer<T>& layer, const LayerCache& c,
                             const DenseMatrix<T>& g_r, LayerGrads<T>& grads) {
    grads.d_w = weight_grad_r(c.ph_r, g_r);
    DenseMatrix<T> row_r, col_c;
    {
      comm::ComputeRegion cr(world().stats());
      const DenseMatrix<T> m_r = matmul_nt(g_r, layer.weights());
      // N = A ⊙ (M H^T): the backward SDDMM on the stationary pattern. N^T
      // and Psi^T are read through the block transpose's map.
      const CsrMatrix<T>& a_t = layout_->adjacency_t();
      const CsrMatrix<T> n_blk = sddmm(layout_->adjacency(), m_r, c.h_c);
      row_r = spmm(n_blk, c.h_c);
      spmm_transposed(a_t, n_blk.vals(), c.h_r, col_c);
      spmm_accumulate_transposed(a_t, c.psi.vals(), m_r, col_c);
    }
    return combine_partials(col_c, &row_r);
  }

  DenseMatrix<T> backward_agnn(const Layer<T>& layer, const LayerCache& c,
                               const DenseMatrix<T>& g_r, LayerGrads<T>& grads) {
    grads.d_w = weight_grad_r(c.ph_r, g_r);
    DenseMatrix<T> row_r, col_c;
    {
      comm::ComputeRegion cr(world().stats());
      const DenseMatrix<T> m_r = matmul_nt(g_r, layer.weights());
      // D = dL/dcos on the edges; cos_ij = <h_i, h_j> / (|h_i| |h_j|).
      const CsrMatrix<T>& a_t = layout_->adjacency_t();
      const CsrMatrix<T> d = sddmm(layout_->adjacency(), m_r, c.h_c);
      const CsrMatrix<T> dc = hadamard_same_pattern(d, c.cos);
      std::vector<T> norms_r, norms_c;
      DenseMatrix<T> hhat_r, hhat_c;
      unit_rows(c.h_r, norms_r, hhat_r);
      unit_rows(c.h_c, norms_c, hhat_c);
      row_r = spmm(d, hhat_c);
      spmm_transposed(a_t, d.vals(), hhat_r, col_c);
      // Both sides are linear in the partials, so the norm projection runs
      // before the reductions.
      const std::vector<T> rs = sparse_row_sums(dc), cs = sparse_col_sums(dc);
      project_rows<T>(row_r, rs, hhat_r, norms_r);
      project_rows<T>(col_c, cs, hhat_c, norms_c);
      spmm_accumulate_transposed(a_t, c.psi.vals(), m_r, col_c);
    }
    return combine_partials(col_c, &row_r);
  }

  // Per head as Layer::backward_gat; then dW = H^T dH' and Gamma = dH' W^T
  // over every head's columns at once.
  DenseMatrix<T> backward_gat(const Layer<T>& layer, const LayerCache& c,
                              const DenseMatrix<T>& g_r, LayerGrads<T>& grads) {
    const CsrMatrix<T>& a = layout_->adjacency();
    const int heads = layer.heads();
    const index_t k = layer.head_features();
    const T g_scale = layer.average_heads() ? T(1) / static_cast<T>(heads) : T(1);
    std::vector<T> da(layer.attention_params().size(), T(0));
    DenseMatrix<T> dhp_v;  // every head's dH' rows V, side by side
    DenseMatrix<T> g_hb, hp_cb, hp_vb, dhp_hb;  // head blocks (unused at one head)
    for (int hd = 0; hd < heads; ++hd) {
      const CsrMatrix<T>& psi = c.heads[static_cast<std::size_t>(hd)].psi;
      const auto pre = c.heads[static_cast<std::size_t>(hd)].scores_pre.vals();
      const auto [a1, a2] = layer.attention_halves(hd);
      const DenseMatrix<T>& g_h =
          layer.head_block(g_r, layer.average_heads() ? 0 : hd, g_scale, g_hb);
      const DenseMatrix<T>& hp_c = layer.head_block(c.hp_c, hd, T(1), hp_cb);
      const auto da_h = da.begin() + 2 * hd * k;

      CsrMatrix<T> d_psi;
      std::vector<T> dots(static_cast<std::size_t>(a.rows()), T(0));
      {
        comm::ComputeRegion cr(world().stats());
        d_psi = sddmm_unweighted(psi, g_h, hp_c);
#pragma omp parallel for schedule(static)
        for (index_t i = 0; i < a.rows(); ++i) {
          T acc = T(0);
          for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
            acc += psi.val_at(e) * d_psi.val_at(e);
          }
          dots[static_cast<std::size_t>(i)] = acc;
        }
      }
      // The softmax Jacobian's per-row dot spans the row family.
      layout_->reduce_rows(std::span<T>(dots));

      std::vector<T> ds1_r;
      DenseMatrix<T> col_c;
      {
        comm::ComputeRegion cr(world().stats());
        CsrMatrix<T> d_c = d_psi;
        auto v = d_c.vals_mutable();
        const T slope = layer.attention_slope();
#pragma omp parallel for schedule(static)
        for (index_t i = 0; i < a.rows(); ++i) {
          const T dot = dots[static_cast<std::size_t>(i)];
          for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
            const T de = psi.val_at(e) * (d_psi.val_at(e) - dot);
            const T cv = pre[static_cast<std::size_t>(e)];
            v[static_cast<std::size_t>(e)] =
                de * a.val_at(e) * (cv > T(0) ? T(1) : slope);
          }
        }
        ds1_r = sparse_row_sums(d_c);
        const std::vector<T> ds2_c = sparse_col_sums(d_c);
        spmm_transposed(layout_->adjacency_t(), psi.vals(), g_h, col_c);
        add_outer_inplace(col_c, std::span<const T>(ds2_c), a2);
        // da2 = H'^T ds2: the A blocks partition the edges, so every rank's
        // column partial adds in once through the da allreduce.
        const std::vector<T> da2 = matvec_tn(hp_c, std::span<const T>(ds2_c));
        std::copy(da2.begin(), da2.end(), da_h + k);
      }
      layout_->reduce_rows(std::span<T>(ds1_r));
      std::vector<T> ds1_v;
      layout_->to_input(ds1_r, ds1_v);
      DenseMatrix<T>& dhp_h = heads == 1 ? dhp_v : dhp_hb;
      layout_->reduce_cols(col_c, dhp_h);

      // da1 comes from V rows, replicated on the other input copies.
      comm::ComputeRegion cr(world().stats());
      add_outer_inplace(dhp_h, std::span<const T>(ds1_v), a1);
      if (layout_->owns_input_copy()) {
        const std::vector<T> da1 =
            matvec_tn(layer.head_block(c.hp_v, hd, T(1), hp_vb), std::span<const T>(ds1_v));
        std::copy(da1.begin(), da1.end(), da_h);
      }
      if (heads > 1) {
        if (hd == 0) dhp_v = DenseMatrix<T>(dhp_h.rows(), layer.weights().cols(), T(0));
        axpy_cols(T(1), dhp_h, hd * k, dhp_v);
      }
    }

    // dW, like da1, from the V rows of one input copy.
    const DenseMatrix<T>& w = layer.weights();
    grads.d_w = DenseMatrix<T>(w.rows(), w.cols(), T(0));
    comm::ComputeRegion cr(world().stats());
    if (layout_->owns_input_copy()) grads.d_w = matmul_tn(c.h_v, dhp_v);
    grads.d_a = std::move(da);
    return matmul_nt(dhp_v, w);
  }

  // This rank's share of dW = sum over R blocks of X_R^T G_R: layout-R rows
  // are identical across the row family, so one copy contributes.
  DenseMatrix<T> weight_grad_r(const DenseMatrix<T>& x_r, const DenseMatrix<T>& g_r) {
    DenseMatrix<T> dw(x_r.cols(), g_r.cols(), T(0));
    if (layout_->owns_row_copy()) {
      comm::ComputeRegion cr(world().stats());
      dw = matmul_tn(x_r, g_r);
    }
    return dw;
  }

  // Gamma_V = (column partials summed over the column family) + (row
  // partials, if any, summed over the row family and moved to V).
  DenseMatrix<T> combine_partials(const DenseMatrix<T>& col_c, DenseMatrix<T>* row_r) {
    DenseMatrix<T> gamma_v, row_v;
    if (row_r) {
      layout_->reduce_rows(row_r->flat());
      layout_->to_input(*row_r, row_v);
    }
    layout_->reduce_cols(col_c, gamma_v);
    if (row_r) {
      comm::ComputeRegion cr(world().stats());
      axpy(T(1), row_v, gamma_v);
    }
    return gamma_v;
  }

  DistPolicy policy_;
  std::unique_ptr<Layout<T>> layout_;
  GnnModel<T>& model_;
  Workspace<T> ws_;                 // per-rank scratch pool
  std::vector<LayerCache> caches_;  // persistent training caches
  LayerCache infer_cache_;          // every inference layer's intermediates
};

}  // namespace agnn::dist
