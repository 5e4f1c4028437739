// Distributed LOCAL-formulation engine: the communication pattern of
// message-passing GNN systems (DistDGL and friends), implemented faithfully
// so the paper's global-vs-local comparison runs on identical hardware.
//
// Vertices are 1D block-partitioned over p ranks. Every layer:
//   1. ghost exchange — each rank fetches the feature vectors of all remote
//      neighbors of its owned vertices: Theta(min(n, d*n/p) * k) words per
//      rank, the local-formulation volume of Section 7 (vs the global
//      formulation's O(n*k/sqrt(p)));
//   2. local compute on the owned rows against the [owned; ghosts] feature
//      table;
//   3. (backward only) ghost scatter — gradient contributions to remote
//      vertices are shipped back to their owners, the reverse pattern with
//      the same volume.
//
// Per-rank compute uses the same fused kernels as the global engine, so the
// two engines differ *only* in communication — exactly the comparison the
// paper's analysis isolates.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/workspace.hpp"
#include "dist/process_grid.hpp"
#include "obs/trace.hpp"

namespace agnn::baseline {

template <typename T>
struct LocalLayerCache {
  DenseMatrix<T> table;         // [H_own; H_ghost] feature table
  DenseMatrix<T> z_own;         // pre-activation, owned rows
  CsrMatrix<T> psi_loc;         // attention block, owned rows x table cols
  CsrMatrix<T> cos_loc;         // AGNN cosine block
  CsrMatrix<T> scores_pre_loc;  // GAT pre-activation scores
  DenseMatrix<T> hp_table;      // GAT: W-projected table
  DenseMatrix<T> ph_own;        // pre-W aggregate (VA/AGNN/GCN); GIN: X
  DenseMatrix<T> mlp_pre_own;   // GIN: (X W) pre-activation
  DenseMatrix<T> mlp_hidden_own;  // GIN: sigma_mlp(X W)
};

template <typename T>
class DistLocalEngine {
 public:
  DistLocalEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
                  GnnModel<T>& model)
      : world_(world),
        p_(world.size()),
        n_(a_global.rows()),
        vr_(dist::block_range(n_, p_, world.rank())),
        model_(model) {
    // The single-head DistDGL stand-in: it refuses more heads rather than
    // run the first alone.
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      AGNN_ASSERT(model.layer(l).heads() == 1,
                  "DistLocalEngine runs one attention head, layer " + std::to_string(l) +
                      " has " + std::to_string(model.layer(l).heads()));
    }
    build_partition(a_global);
    exchange_ghost_lists();
  }

  index_t num_vertices() const { return n_; }
  const dist::BlockRange& owned_block() const { return vr_; }
  index_t num_ghosts() const { return static_cast<index_t>(ghost_ids_.size()); }
  Workspace<T>& workspace() { return ws_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats(); }

  DenseMatrix<T> forward(const DenseMatrix<T>& x_global,
                         std::vector<LocalLayerCache<T>>* caches) {
    AGNN_TRACE_SCOPE("local_dist.forward", kPhase);
    DenseMatrix<T> h_own = x_global.slice_rows(vr_.begin, vr_.end);
    if (caches) caches->resize(model_.num_layers());  // keeps slot storage warm
    for (std::size_t l = 0; l < model_.num_layers(); ++l) {
      h_own = layer_forward(model_.layer(l), h_own, caches ? &(*caches)[l] : nullptr);
    }
    return h_own;
  }

  DenseMatrix<T> infer(const DenseMatrix<T>& x_global) {
    const DenseMatrix<T> h_own = forward(x_global, nullptr);
    const std::vector<T> flat = world_.allgatherv(std::span<const T>(h_own.flat()));
    return DenseMatrix<T>(n_, h_own.cols(), flat);
  }

  struct StepResult {
    T loss = T(0);
  };

  StepResult train_step(const DenseMatrix<T>& x_global,
                        std::span<const index_t> labels, Optimizer<T>& opt,
                        std::span<const std::uint8_t> mask = {}) {
    AGNN_TRACE_SCOPE("local_dist.train_step", kPhase);
    std::vector<LocalLayerCache<T>>& caches = caches_;  // persistent slots
    const DenseMatrix<T> h_own = forward(x_global, &caches);

    index_t active = 0;
    for (index_t i = 0; i < static_cast<index_t>(labels.size()); ++i) {
      if (mask.empty() || mask[static_cast<std::size_t>(i)]) ++active;
    }
    const auto local_labels = labels.subspan(static_cast<std::size_t>(vr_.begin),
                                             static_cast<std::size_t>(vr_.size()));
    const auto local_mask =
        mask.empty() ? mask
                     : mask.subspan(static_cast<std::size_t>(vr_.begin),
                                    static_cast<std::size_t>(vr_.size()));
    LossResult<T> loss = softmax_cross_entropy(h_own, local_labels, local_mask, active);
    std::vector<T> loss_buf{loss.value};
    world_.allreduce_sum(std::span<T>(loss_buf));

    const auto& last = model_.layer(model_.num_layers() - 1);
    DenseMatrix<T> g_own =
        activation_backward(last.activation(), caches.back().z_own, loss.grad);

    std::vector<LayerGrads<T>> grads(model_.num_layers());
    for (std::size_t l = model_.num_layers(); l-- > 0;) {
      DenseMatrix<T> gamma_own =
          layer_backward(model_.layer(l), caches[l], g_own, grads[l]);
      if (l > 0) {
        g_own = activation_backward(model_.layer(l - 1).activation(),
                                    caches[l - 1].z_own, gamma_own);
      }
    }
    model_.apply_gradients(grads, opt);
    return {loss_buf[0]};
  }

  // The world communicator (exposed so the recovery loop can barrier and
  // rendezvous on the same group the engine trains over).
  comm::Communicator& world() { return world_; }

 private:
  // ---- setup ---------------------------------------------------------------

  void build_partition(const CsrMatrix<T>& a_global) {
    const CsrMatrix<T> rows = a_global.block(vr_.begin, vr_.end, 0, n_);
    // Collect remote neighbor ids (ghosts), sorted and unique.
    std::vector<index_t> ghosts;
    for (index_t e = 0; e < rows.nnz(); ++e) {
      const index_t c = rows.col_at(e);
      if (c < vr_.begin || c >= vr_.end) ghosts.push_back(c);
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    ghost_ids_ = std::move(ghosts);

    // Re-index columns: owned -> [0, own), ghost g -> own + index(g).
    const index_t own = vr_.size();
    CooMatrix<T> coo;
    coo.n_rows = own;
    coo.n_cols = own + static_cast<index_t>(ghost_ids_.size());
    coo.reserve(static_cast<std::size_t>(rows.nnz()));
    for (index_t i = 0; i < own; ++i) {
      for (index_t e = rows.row_begin(i); e < rows.row_end(i); ++e) {
        const index_t c = rows.col_at(e);
        index_t lc;
        if (c >= vr_.begin && c < vr_.end) {
          lc = c - vr_.begin;
        } else {
          const auto it = std::lower_bound(ghost_ids_.begin(), ghost_ids_.end(), c);
          lc = own + static_cast<index_t>(it - ghost_ids_.begin());
        }
        coo.push_back(i, lc, rows.val_at(e));
      }
    }
    local_adj_ = CsrMatrix<T>::from_coo(coo);

    // Per-owner contiguous slices of the sorted ghost list.
    ghost_slice_.assign(static_cast<std::size_t>(p_) + 1, 0);
    for (int r = 0; r < p_; ++r) {
      const auto range = dist::block_range(n_, p_, r);
      const auto it = std::lower_bound(ghost_ids_.begin(), ghost_ids_.end(), range.begin);
      ghost_slice_[static_cast<std::size_t>(r)] =
          static_cast<index_t>(it - ghost_ids_.begin());
    }
    ghost_slice_[static_cast<std::size_t>(p_)] = static_cast<index_t>(ghost_ids_.size());
  }

  // Every rank learns, for every other rank r, which of r's ghosts it owns
  // (and where they sit in r's ghost list). Static partition-time metadata —
  // the analogue of DistDGL's partitioning step; per-layer accounting starts
  // after construction (callers reset the volume stats).
  void exchange_ghost_lists() {
    std::vector<std::size_t> offsets;
    const std::vector<index_t> all =
        world_.allgatherv(std::span<const index_t>(ghost_ids_), &offsets);
    incoming_offset_.assign(static_cast<std::size_t>(p_), 0);
    incoming_local_rows_.assign(static_cast<std::size_t>(p_), {});
    for (int r = 0; r < p_; ++r) {
      if (r == world_.rank()) continue;
      const std::size_t begin = offsets[static_cast<std::size_t>(r)];
      const std::size_t end = (r + 1 < p_) ? offsets[static_cast<std::size_t>(r) + 1]
                                           : all.size();
      // r's ghost list is sorted; my owned range is contiguous within it.
      const auto* lo = std::lower_bound(all.data() + begin, all.data() + end, vr_.begin);
      const auto* hi = std::lower_bound(all.data() + begin, all.data() + end, vr_.end);
      incoming_offset_[static_cast<std::size_t>(r)] =
          static_cast<index_t>(lo - (all.data() + begin));
      auto& rows = incoming_local_rows_[static_cast<std::size_t>(r)];
      rows.reserve(static_cast<std::size_t>(hi - lo));
      for (const auto* it = lo; it != hi; ++it) rows.push_back(*it - vr_.begin);
    }
  }

  // ---- communication steps ---------------------------------------------------

  // Fetch ghost feature rows from their owners (forward exchange), writing
  // directly into rows [own, own + G) of the feature table — no staging
  // buffer, so a reused table means a reused exchange target.
  void fetch_ghost_rows_into(const DenseMatrix<T>& h_own, DenseMatrix<T>& table) {
    AGNN_TRACE_SCOPE("local_dist.ghost_exchange", kPhase);
    const index_t k = h_own.cols();
    const index_t own = vr_.size();
    auto win = world_.expose(std::span<const T>(h_own.flat()));
    for (std::size_t g = 0; g < ghost_ids_.size(); ++g) {
      const index_t id = ghost_ids_[g];
      const int owner = owner_of(id);
      const auto range = dist::block_range(n_, p_, owner);
      win.get(table.row(own + static_cast<index_t>(g)), owner,
              static_cast<std::size_t>((id - range.begin) * k));
    }
    win.close();
  }

  // Ship ghost gradient contributions back to their owners and accumulate
  // into `gamma_own` (backward exchange). `contrib_ghost` rows follow the
  // ghost list order.
  void scatter_ghost_contributions(const DenseMatrix<T>& contrib_ghost,
                                   DenseMatrix<T>& gamma_own) {
    AGNN_TRACE_SCOPE("local_dist.ghost_scatter", kPhase);
    const index_t k = contrib_ghost.cols();
    auto win = world_.expose(std::span<const T>(contrib_ghost.flat()));
    for (int r = 0; r < p_; ++r) {
      if (r == world_.rank()) continue;
      const auto& rows = incoming_local_rows_[static_cast<std::size_t>(r)];
      if (rows.empty()) continue;
      DenseMatrix<T> buf(static_cast<index_t>(rows.size()), k);
      win.get(buf.flat(), r,
              static_cast<std::size_t>(incoming_offset_[static_cast<std::size_t>(r)] * k));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const T* src = buf.data() + static_cast<index_t>(i) * k;
        T* dst = gamma_own.data() + rows[i] * k;
        for (index_t j = 0; j < k; ++j) dst[j] += src[j];
      }
    }
    win.close();
  }

  int owner_of(index_t id) const {
    // Blocks are near-equal; locate by search over the p ranges.
    int lo = 0, hi = p_ - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (dist::block_range(n_, p_, mid).end <= id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // ---- per-layer forward -----------------------------------------------------

  DenseMatrix<T> layer_forward(const Layer<T>& layer, const DenseMatrix<T>& h_own,
                               LocalLayerCache<T>* cache) {
    AGNN_TRACE_SCOPE("local_dist.layer_forward", kPhase);
    DenseMatrix<T> w = layer.weights();
    world_.broadcast(w.flat(), 0);
    std::vector<T> a = layer.attention_params();
    if (!a.empty()) world_.broadcast(std::span<T>(a), 0);

    const index_t own = vr_.size();
    const index_t k_in = h_own.cols();
    // All intermediates live in the cache slots (or a throwaway scratch in
    // inference mode), overwritten in place across steps.
    LocalLayerCache<T> scratch;
    LocalLayerCache<T>& c = cache ? *cache : scratch;
    // Ghost exchange, straight into the feature table.
    c.table.resize(own + num_ghosts(), k_in);
    c.table.set_rows(0, h_own);
    fetch_ghost_rows_into(h_own, c.table);

    DenseMatrix<T> w2 = layer.weights2();
    if (!w2.empty()) world_.broadcast(w2.flat(), 0);

    comm::ComputeRegion t(world_.stats());
    switch (layer.kind()) {
      case ModelKind::kGCN: {
        spmm(local_adj_, c.table, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        c.psi_loc = local_adj_;
        break;
      }
      case ModelKind::kGIN: {
        spmm(local_adj_, c.table, c.ph_own);  // X = A H ...
        axpy(T(1) + layer.gin_epsilon(), h_own, c.ph_own);  // ... + (1+eps) H
        matmul(c.ph_own, w, c.mlp_pre_own);
        activate(layer.mlp_activation(), c.mlp_pre_own, c.mlp_hidden_own, T(0.01));
        matmul(c.mlp_hidden_own, w2, c.z_own);
        c.psi_loc = local_adj_;
        break;
      }
      case ModelKind::kVA: {
        sddmm(local_adj_, h_own, c.table, c.psi_loc);
        spmm(c.psi_loc, c.table, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        break;
      }
      case ModelKind::kAGNN: {
        sddmm_unweighted(local_adj_, h_own, c.table, c.cos_loc);
        auto inv_r = ws_.acquire_vec(own);
        auto inv_c = ws_.acquire_vec(c.table.rows());
        row_l2_norms(h_own, *inv_r);
        row_l2_norms(c.table, *inv_c);
        for (auto& v : *inv_r) v = v > T(0) ? T(1) / v : T(0);
        for (auto& v : *inv_c) v = v > T(0) ? T(1) / v : T(0);
        scale_rows_cols<T>(c.cos_loc, inv_r.cspan(), inv_c.cspan(), c.cos_loc);
        hadamard_same_pattern(c.cos_loc, local_adj_, c.psi_loc);
        spmm(c.psi_loc, c.table, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        break;
      }
      case ModelKind::kGAT: {
        matmul(c.table, w, c.hp_table);
        const index_t k_out = layer.out_features();
        const std::span<const T> a_all(a);
        const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_out));
        const auto a2 = a_all.subspan(static_cast<std::size_t>(k_out));
        auto s1 = ws_.acquire_vec(own);
        auto s2 = ws_.acquire_vec(c.hp_table.rows());
        for (index_t i = 0; i < own; ++i) {  // s1 needs only the owned rows
          const T* r = c.hp_table.data() + i * k_out;
          T acc = T(0);
          for (index_t g = 0; g < k_out; ++g) acc += r[g] * a1[static_cast<std::size_t>(g)];
          (*s1)[static_cast<std::size_t>(i)] = acc;
        }
        matvec(c.hp_table, a2, *s2);
        psi_gat<T>(local_adj_, s1.cspan(), s2.cspan(), layer.attention_slope(),
                   c.scores_pre_loc, c.psi_loc);
        spmm(c.psi_loc, c.hp_table, c.z_own);
        break;
      }
    }
    return activate(layer.activation(), c.z_own, T(0.01));
  }

  // ---- per-layer backward ------------------------------------------------------

  DenseMatrix<T> layer_backward(const Layer<T>& layer, const LocalLayerCache<T>& cache,
                                const DenseMatrix<T>& g_own, LayerGrads<T>& grads) {
    AGNN_TRACE_SCOPE("local_dist.layer_backward", kPhase);
    const DenseMatrix<T>& w = layer.weights();
    const index_t own = vr_.size();
    const index_t k_in = layer.in_features();
    DenseMatrix<T> h_own = cache.table.slice_rows(0, own);

    DenseMatrix<T> gamma_table;  // contributions to every table vertex
    switch (layer.kind()) {
      case ModelKind::kGCN: {
        comm::ComputeRegion t(world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        gamma_table = spmm(local_adj_.transposed(), m_own);
        break;
      }
      case ModelKind::kGIN: {
        comm::ComputeRegion t(world_.stats());
        grads.d_w2 = matmul_tn(cache.mlp_hidden_own, g_own);
        const DenseMatrix<T> d_hidden = matmul_nt(g_own, layer.weights2());
        const DenseMatrix<T> d_pre = activation_backward(
            layer.mlp_activation(), cache.mlp_pre_own, d_hidden, T(0.01));
        grads.d_w = matmul_tn(cache.ph_own, d_pre);
        const DenseMatrix<T> d_x = matmul_nt(d_pre, w);
        gamma_table = spmm(local_adj_.transposed(), d_x);
        // The (1+eps) self-term lands on owned rows directly.
        for (index_t i = 0; i < own; ++i) {
          T* dst = gamma_table.data() + i * k_in;
          const T* src = d_x.data() + i * k_in;
          const T c = T(1) + layer.gin_epsilon();
          for (index_t j = 0; j < k_in; ++j) dst[j] += c * src[j];
        }
        break;
      }
      case ModelKind::kVA: {
        comm::ComputeRegion t(world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        const CsrMatrix<T> n_loc = sddmm(local_adj_, m_own, cache.table);
        gamma_table = spmm(n_loc.transposed(), h_own);
        spmm_accumulate(cache.psi_loc.transposed(), m_own, gamma_table);
        // The N H term lands on owned rows directly.
        DenseMatrix<T> nh_own = spmm(n_loc, cache.table);
        for (index_t i = 0; i < own; ++i) {
          T* dst = gamma_table.data() + i * k_in;
          const T* src = nh_own.data() + i * k_in;
          for (index_t j = 0; j < k_in; ++j) dst[j] += src[j];
        }
        break;
      }
      case ModelKind::kAGNN: {
        comm::ComputeRegion t(world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        const CsrMatrix<T> d_loc = sddmm(local_adj_, m_own, cache.table);
        const CsrMatrix<T> dc = hadamard_same_pattern(d_loc, cache.cos_loc);
        const std::vector<T> rs_own = sparse_row_sums(dc);
        const std::vector<T> cs_table = sparse_col_sums(dc);
        const std::vector<T> norms = row_l2_norms(cache.table);
        DenseMatrix<T> hhat = cache.table;
        for (index_t i = 0; i < hhat.rows(); ++i) {
          const T ni = norms[static_cast<std::size_t>(i)];
          if (ni <= T(0)) continue;
          T* row = hhat.data() + i * k_in;
          for (index_t j = 0; j < k_in; ++j) row[j] /= ni;
        }
        const DenseMatrix<T> hhat_own = hhat.slice_rows(0, own);
        // Column-side (ghost-reaching) cosine contributions, scaled by 1/n_j.
        gamma_table = spmm(d_loc.transposed(), hhat_own);
        for (index_t j = 0; j < gamma_table.rows(); ++j) {
          const T nj = norms[static_cast<std::size_t>(j)];
          T* row = gamma_table.data() + j * k_in;
          if (nj <= T(0)) {
            for (index_t g = 0; g < k_in; ++g) row[g] = T(0);
            continue;
          }
          const T coef = cs_table[static_cast<std::size_t>(j)];
          const T* hh = hhat.data() + j * k_in;
          const T inv = T(1) / nj;
          for (index_t g = 0; g < k_in; ++g) row[g] = (row[g] - coef * hh[g]) * inv;
        }
        spmm_accumulate(cache.psi_loc.transposed(), m_own, gamma_table);
        // Row-side cosine contributions land on owned rows.
        const DenseMatrix<T> dh_own = spmm(d_loc, hhat);
        for (index_t i = 0; i < own; ++i) {
          const T ni = norms[static_cast<std::size_t>(i)];
          if (ni <= T(0)) continue;
          T* dst = gamma_table.data() + i * k_in;
          const T* src = dh_own.data() + i * k_in;
          const T coef = rs_own[static_cast<std::size_t>(i)];
          const T* hh = hhat.data() + i * k_in;
          const T inv = T(1) / ni;
          for (index_t g = 0; g < k_in; ++g) dst[g] += (src[g] - coef * hh[g]) * inv;
        }
        break;
      }
      case ModelKind::kGAT: {
        comm::ComputeRegion t(world_.stats());
        const index_t k_out = layer.out_features();
        const std::span<const T> a_all(layer.attention_params());
        const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_out));
        const auto a2 = a_all.subspan(static_cast<std::size_t>(k_out));
        const CsrMatrix<T> d_psi =
            sddmm(cache.psi_loc.with_values(T(1)), g_own, cache.hp_table);
        const CsrMatrix<T> d_e = row_softmax_backward(cache.psi_loc, d_psi);
        CsrMatrix<T> d_c = d_e;
        {
          auto v = d_c.vals_mutable();
          const auto pre = cache.scores_pre_loc.vals();
          const T slope = layer.attention_slope();
          for (index_t e = 0; e < d_c.nnz(); ++e) {
            const T c = pre[static_cast<std::size_t>(e)];
            v[static_cast<std::size_t>(e)] *=
                local_adj_.val_at(e) * (c > T(0) ? T(1) : slope);
          }
        }
        const std::vector<T> ds1_own = sparse_row_sums(d_c);
        const std::vector<T> ds2_table = sparse_col_sums(d_c);
        DenseMatrix<T> dhp_table = spmm(cache.psi_loc.transposed(), g_own);
        for (index_t i = 0; i < own; ++i) {
          T* row = dhp_table.data() + i * k_out;
          const T s = ds1_own[static_cast<std::size_t>(i)];
          for (index_t g = 0; g < k_out; ++g) row[g] += s * a1[static_cast<std::size_t>(g)];
        }
        add_outer_inplace(dhp_table, std::span<const T>(ds2_table), a2);
        grads.d_w = matmul_tn(cache.table, dhp_table);
        grads.d_a.assign(static_cast<std::size_t>(2 * k_out), T(0));
        const DenseMatrix<T> hp_own = cache.hp_table.slice_rows(0, own);
        const std::vector<T> da1 = matvec_tn(hp_own, std::span<const T>(ds1_own));
        const std::vector<T> da2 = matvec_tn(cache.hp_table, std::span<const T>(ds2_table));
        std::copy(da1.begin(), da1.end(), grads.d_a.begin());
        std::copy(da2.begin(), da2.end(), grads.d_a.begin() + k_out);
        gamma_table = matmul_nt(dhp_table, w);
        break;
      }
    }

    // Parameter gradients are partial sums over ranks: allreduce.
    world_.allreduce_sum(grads.d_w.flat());
    if (!grads.d_w2.empty()) world_.allreduce_sum(grads.d_w2.flat());
    if (!grads.d_a.empty()) world_.allreduce_sum(std::span<T>(grads.d_a));

    // Assemble Gamma for owned rows: own part + remote contributions.
    DenseMatrix<T> gamma_own = gamma_table.slice_rows(0, own);
    const DenseMatrix<T> contrib_ghost =
        gamma_table.slice_rows(own, gamma_table.rows());
    scatter_ghost_contributions(contrib_ghost, gamma_own);
    return gamma_own;
  }

  comm::Communicator& world_;
  int p_;
  index_t n_;
  dist::BlockRange vr_;
  GnnModel<T>& model_;
  CsrMatrix<T> local_adj_;          // owned rows x [owned; ghosts]
  std::vector<index_t> ghost_ids_;  // sorted global ids of ghost vertices
  std::vector<index_t> ghost_slice_;  // per-owner ranges in ghost_ids_
  std::vector<index_t> incoming_offset_;               // per source rank
  std::vector<std::vector<index_t>> incoming_local_rows_;  // per source rank
  Workspace<T> ws_;                          // per-rank scratch pool
  std::vector<LocalLayerCache<T>> caches_;   // persistent training caches
};

}  // namespace agnn::baseline
