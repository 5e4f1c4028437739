// Distributed multi-head GAT on the 1.5D process grid: each attention head
// runs the single-head GAT scheme of dist_engine.hpp over the square-grid
// layout (dist/layout.hpp: stationary 2D sparse blocks, partner row gets,
// row/column reductions, distributed graph softmax), and the heads' outputs
// are combined per the layer's concat/average rule. Per rank, per layer:
// heads x O(n k_head / sqrt(p)) words — multi-head attention multiplies the
// volume by the head count but keeps the sqrt(p) scaling.
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "core/loss.hpp"
#include "core/multihead_gat.hpp"
#include "core/workspace.hpp"
#include "dist/layout.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace agnn::dist {

template <typename T>
struct DistMultiHeadCache {
  DenseMatrix<T> h_b;  // layer input, rows C_j
  DenseMatrix<T> z_b;  // combined pre-activation, rows C_j
  struct Head {
    CsrMatrix<T> psi_loc;
    CsrMatrix<T> scores_pre_loc;
    DenseMatrix<T> hp_b;
    std::vector<T> s1_r, s2_b;
  };
  std::vector<Head> heads;
};

// On the square grid the column block C_j is the input block, so a head's
// H' = H W rows serve as the column operand without any movement.
template <typename T>
class DistMultiHeadGatEngine {
 public:
  DistMultiHeadGatEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
                         MultiHeadGat<T>& model)
      : layout_(world, a_global), model_(model) {}

  DenseMatrix<T> forward(const DenseMatrix<T>& x_global,
                         std::vector<DistMultiHeadCache<T>>* caches) {
    AGNN_TRACE_SCOPE("dist_mh_gat.forward", kPhase);
    const BlockRange cj = layout_.input_rows();
    DenseMatrix<T> h_b = x_global.slice_rows(cj.begin, cj.end);
    if (caches) caches->resize(model_.num_layers());  // keeps slot storage warm
    for (std::size_t l = 0; l < model_.num_layers(); ++l) {
      h_b = layer_forward(model_.layer(l), h_b, caches ? &(*caches)[l] : nullptr);
    }
    return h_b;
  }

  Workspace<T>& workspace() { return ws_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats(); }

  DenseMatrix<T> infer(const DenseMatrix<T>& x_global) {
    return layout_.gather(forward(x_global, nullptr));
  }

  struct StepResult {
    T loss = T(0);
  };

  StepResult train_step(const DenseMatrix<T>& x_global,
                        std::span<const index_t> labels, Optimizer<T>& opt,
                        std::span<const std::uint8_t> mask = {}) {
    AGNN_TRACE_SCOPE("dist_mh_gat.train_step", kPhase);
    std::vector<DistMultiHeadCache<T>>& caches = caches_;  // persistent slots
    const DenseMatrix<T> h_b = forward(x_global, &caches);

    index_t active = 0;
    for (index_t i = 0; i < static_cast<index_t>(labels.size()); ++i) {
      if (mask.empty() || mask[static_cast<std::size_t>(i)]) ++active;
    }
    const BlockRange cj = layout_.input_rows();
    const auto b = static_cast<std::size_t>(cj.begin);
    const auto len = static_cast<std::size_t>(cj.size());
    LossResult<T> loss = softmax_cross_entropy(
        h_b, labels.subspan(b, len), mask.empty() ? mask : mask.subspan(b, len),
        active);
    std::vector<T> loss_buf{layout_.owns_input_copy() ? loss.value : T(0)};
    world().allreduce_sum(std::span<T>(loss_buf));

    const auto& last = model_.layer(model_.num_layers() - 1);
    DenseMatrix<T> g_b =
        activation_backward(last.activation(), caches.back().z_b, loss.grad);
    std::vector<MultiHeadGrads<T>> grads(model_.num_layers());
    for (std::size_t l = model_.num_layers(); l-- > 0;) {
      DenseMatrix<T> gamma_b = layer_backward(model_.layer(l), caches[l], g_b, grads[l]);
      if (l > 0) {
        g_b = activation_backward(model_.layer(l - 1).activation(),
                                  caches[l - 1].z_b, gamma_b);
      }
    }
    model_.apply_gradients(grads, opt);
    return {loss_buf[0]};
  }

  // The world communicator (exposed so the recovery loop can barrier and
  // rendezvous on the same group the engine trains over).
  comm::Communicator& world() { return layout_.world(); }

 private:
  DenseMatrix<T> layer_forward(const MultiHeadGatLayer<T>& layer,
                               const DenseMatrix<T>& h_b,
                               DistMultiHeadCache<T>* cache) {
    AGNN_TRACE_SCOPE("dist_mh_gat.layer_forward", kPhase);
    const CsrMatrix<T>& a = layout_.adjacency();
    const index_t k_head = layer.head_features();
    const index_t out = layer.out_features();
    const T head_scale = layer.combine() == HeadCombine::kAverage
                             ? T(1) / static_cast<T>(layer.num_heads())
                             : T(1);
    auto z_r_h = ws_.acquire_dense(a.rows(), out);
    DenseMatrix<T>& z_r = *z_r_h;
    z_r.fill(T(0));
    // Per-head intermediates live in the cache slots (or a throwaway scratch
    // in inference mode), overwritten in place across steps and heads.
    DistMultiHeadCache<T> scratch;
    DistMultiHeadCache<T>& c = cache ? *cache : scratch;
    if (cache) c.h_b = h_b;
    c.heads.resize(static_cast<std::size_t>(layer.num_heads()));
    auto partial_h = ws_.acquire_dense(a.rows(), k_head);
    DenseMatrix<T>& partial = *partial_h;
    for (int hd = 0; hd < layer.num_heads(); ++hd) {
      auto& hc = c.heads[static_cast<std::size_t>(hd)];
      DenseMatrix<T> w = layer.head(hd).w;
      world().broadcast(w.flat(), 0);
      std::vector<T> att = layer.head(hd).a;
      world().broadcast(std::span<T>(att), 0);

      std::vector<T> s1_b;
      {
        comm::ComputeRegion t(world().stats());
        matmul(h_b, w, hc.hp_b);
        const std::span<const T> a_all(att);
        s1_b = matvec(hc.hp_b, a_all.subspan(0, static_cast<std::size_t>(k_head)));
        matvec(hc.hp_b, a_all.subspan(static_cast<std::size_t>(k_head)), hc.s2_b);
      }
      layout_.fetch_rows(s1_b, hc.s1_r);

      {
        comm::ComputeRegion t(world().stats());
        hc.scores_pre_loc = a;
        hc.psi_loc = a;
        auto pre = hc.scores_pre_loc.vals_mutable();
        auto ev = hc.psi_loc.vals_mutable();
        const T slope = layer.attention_slope();
        for (index_t i = 0; i < a.rows(); ++i) {
          const T s1i = hc.s1_r[static_cast<std::size_t>(i)];
          for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
            const T cv = s1i + hc.s2_b[static_cast<std::size_t>(a.col_at(e))];
            pre[static_cast<std::size_t>(e)] = cv;
            ev[static_cast<std::size_t>(e)] = a.val_at(e) * (cv > T(0) ? cv : slope * cv);
          }
        }
      }
      dist_row_softmax_inplace(hc.psi_loc, layout_, ws_);
      {
        comm::ComputeRegion t(world().stats());
        spmm(hc.psi_loc, hc.hp_b, partial);
      }
      layout_.reduce_rows(partial.flat());
      {
        comm::ComputeRegion t(world().stats());
        const index_t off = layer.combine() == HeadCombine::kConcat
                                ? static_cast<index_t>(hd) * k_head
                                : 0;
        for (index_t i = 0; i < z_r.rows(); ++i) {
          T* dst = z_r.data() + i * out + off;
          const T* src = partial.data() + i * k_head;
          for (index_t j = 0; j < k_head; ++j) dst[j] += head_scale * src[j];
        }
      }
    }
    layout_.to_input(z_r, c.z_b);
    DenseMatrix<T> h_out;
    {
      comm::ComputeRegion t(world().stats());
      activate(layer.activation(), c.z_b, h_out, T(0.01));
    }
    return h_out;
  }

  // Each head's backward is dist_engine.hpp's GAT backward: G fetched once,
  // ds1 reduced over the grid row, and dH' = Psi^T G + ds2 a2^T summed in
  // one column reduce.
  DenseMatrix<T> layer_backward(const MultiHeadGatLayer<T>& layer,
                                const DistMultiHeadCache<T>& cache,
                                const DenseMatrix<T>& g_b, MultiHeadGrads<T>& grads) {
    AGNN_TRACE_SCOPE("dist_mh_gat.layer_backward", kPhase);
    const CsrMatrix<T>& a = layout_.adjacency();
    const index_t k_head = layer.head_features();
    const index_t out = layer.out_features();
    const T head_scale = layer.combine() == HeadCombine::kAverage
                             ? T(1) / static_cast<T>(layer.num_heads())
                             : T(1);
    DenseMatrix<T> g_r;
    layout_.fetch_rows(g_b, g_r);
    grads.heads.resize(static_cast<std::size_t>(layer.num_heads()));
    DenseMatrix<T> gamma_b(g_b.rows(), layer.in_features(), T(0));

    for (int hd = 0; hd < layer.num_heads(); ++hd) {
      const auto& p = layer.head(hd);
      const auto& hc = cache.heads[static_cast<std::size_t>(hd)];
      const index_t off = layer.combine() == HeadCombine::kConcat
                              ? static_cast<index_t>(hd) * k_head
                              : 0;
      const std::span<const T> a_all(p.a);
      const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_head));
      const auto a2 = a_all.subspan(static_cast<std::size_t>(k_head));
      // The head's slice of the gradient, scaled by its combine weight.
      DenseMatrix<T> gh_r(g_r.rows(), k_head);
      for (index_t i = 0; i < g_r.rows(); ++i) {
        const T* src = g_r.data() + i * out + off;
        T* dst = gh_r.data() + i * k_head;
        for (index_t j = 0; j < k_head; ++j) dst[j] = head_scale * src[j];
      }

      CsrMatrix<T> d_psi;
      std::vector<T> dots_r(static_cast<std::size_t>(a.rows()), T(0));
      {
        comm::ComputeRegion t(world().stats());
        d_psi = sddmm_unweighted(hc.psi_loc, gh_r, hc.hp_b);
        for (index_t i = 0; i < a.rows(); ++i) {
          T acc = T(0);
          for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
            acc += hc.psi_loc.val_at(e) * d_psi.val_at(e);
          }
          dots_r[static_cast<std::size_t>(i)] = acc;
        }
      }
      layout_.reduce_rows(std::span<T>(dots_r));

      auto& hg = grads.heads[static_cast<std::size_t>(hd)];
      hg.d_a.assign(static_cast<std::size_t>(2 * k_head), T(0));
      std::vector<T> ds1_r;
      DenseMatrix<T> col_b;
      {
        comm::ComputeRegion t(world().stats());
        CsrMatrix<T> d_c = d_psi;
        auto v = d_c.vals_mutable();
        const auto pre = hc.scores_pre_loc.vals();
        const T slope = layer.attention_slope();
        for (index_t i = 0; i < a.rows(); ++i) {
          const T dot = dots_r[static_cast<std::size_t>(i)];
          for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
            const T de = hc.psi_loc.val_at(e) * (d_psi.val_at(e) - dot);
            const T cv = pre[static_cast<std::size_t>(e)];
            v[static_cast<std::size_t>(e)] = de * a.val_at(e) * (cv > T(0) ? T(1) : slope);
          }
        }
        ds1_r = sparse_row_sums(d_c);
        const std::vector<T> ds2_b = sparse_col_sums(d_c);
        spmm_transposed(layout_.adjacency_t(), hc.psi_loc.vals(), gh_r, col_b);
        add_outer_inplace(col_b, std::span<const T>(ds2_b), a2);
        const std::vector<T> da2 = matvec_tn(hc.hp_b, std::span<const T>(ds2_b));
        std::copy(da2.begin(), da2.end(), hg.d_a.begin() + k_head);
      }
      layout_.reduce_rows(std::span<T>(ds1_r));
      std::vector<T> ds1_b;
      layout_.to_input(ds1_r, ds1_b);
      DenseMatrix<T> dhp_b;
      layout_.reduce_cols(col_b, dhp_b);
      {
        comm::ComputeRegion t(world().stats());
        add_outer_inplace(dhp_b, std::span<const T>(ds1_b), a1);
        hg.d_w = DenseMatrix<T>(p.w.rows(), p.w.cols(), T(0));
        if (layout_.owns_input_copy()) {
          hg.d_w = matmul_tn(cache.h_b, dhp_b);
          const std::vector<T> da1 = matvec_tn(hc.hp_b, std::span<const T>(ds1_b));
          std::copy(da1.begin(), da1.end(), hg.d_a.begin());
        }
        axpy(T(1), matmul_nt(dhp_b, p.w), gamma_b);
      }
      world().allreduce_sum(hg.d_w.flat());
      world().allreduce_sum(std::span<T>(hg.d_a));
    }
    return gamma_b;
  }

  SquareLayout<T> layout_;
  MultiHeadGat<T>& model_;
  Workspace<T> ws_;
  std::vector<DistMultiHeadCache<T>> caches_;
};

}  // namespace agnn::dist
