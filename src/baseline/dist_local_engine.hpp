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
// In the terms of dist/layout.hpp this is one more A-stationary row layout:
// V = R = the owned block, C = [owned; ghosts], with the ghost exchange as
// the column assembly and the ghost scatter as the column reduction. The
// one `dist::DistEngine` runs it, so the two formulations share every line
// of layer math and differ only in communication — exactly the comparison
// the paper's analysis isolates.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "dist/dist_engine.hpp"
#include "dist/layout.hpp"
#include "obs/trace.hpp"

namespace agnn::baseline {

template <typename T>
class GhostLayout final : public dist::Layout<T> {
 public:
  // Collective: the ranks swap ghost lists once. This partition-time
  // metadata is the analogue of DistDGL's partitioning step; per-layer
  // accounting starts after construction (callers reset the volume stats).
  GhostLayout(comm::Communicator& world, const CsrMatrix<T>& a_global)
      : dist::Layout<T>(world, a_global.rows()) {
    this->v_ = this->r_ = dist::block_range(this->n_, world.size(), world.rank());
    CsrMatrix<T> local = build_partition(a_global);
    exchange_ghost_lists();
    const index_t cols = local.cols();
    this->init_blocks(std::move(local), {0, cols});
  }

  index_t num_ghosts() const { return static_cast<index_t>(ghost_ids_.size()); }

  // Ghost exchange: the owned rows, then one get per ghost row from its
  // owner, straight into rows [own, own + G) of x_c.
  void assemble_cols(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c,
                     const typename dist::Layout<T>::StageFn& fn) override {
    {
      AGNN_TRACE_SCOPE("local_dist.ghost_exchange", kPhase);
      const index_t k = x_v.cols(), own = x_v.rows();
      const int p = this->world_.size();
      x_c.resize(own + num_ghosts(), k);
      std::copy(x_v.flat().begin(), x_v.flat().end(), x_c.data());
      auto win = this->world_.expose(x_v.flat());
      for (std::size_t g = 0; g < ghost_ids_.size(); ++g) {
        const index_t id = ghost_ids_[g];
        const index_t owner = dist::block_index_of(this->n_, p, id);
        const index_t first = dist::block_range(this->n_, p, owner).begin;
        win.get(x_c.row(own + static_cast<index_t>(g)), static_cast<int>(owner),
                static_cast<std::size_t>((id - first) * k));
      }
      win.close();
    }
    fn(this->stage(0));
  }

  // Ghost scatter: keep the owned rows of x_c and add, from every other
  // rank, the rows of its ghost partials that this rank owns.
  void reduce_cols(const DenseMatrix<T>& x_c, DenseMatrix<T>& x_v) override {
    AGNN_TRACE_SCOPE("local_dist.ghost_scatter", kPhase);
    const index_t k = x_c.cols(), own = this->v_.size();
    x_v.resize(own, k);
    std::copy(x_c.data(), x_c.data() + own * k, x_v.data());
    const auto ghost_partials = std::span<const T>(x_c.flat()).subspan(
        static_cast<std::size_t>(own * k));
    auto win = this->world_.expose(ghost_partials);
    for (int r = 0; r < this->world_.size(); ++r) {
      const auto& rows = incoming_rows_[static_cast<std::size_t>(r)];
      if (rows.empty()) continue;
      scatter_buf_.resize(static_cast<index_t>(rows.size()), k);
      const index_t offset = incoming_offset_[static_cast<std::size_t>(r)];
      win.get(scatter_buf_.flat(), r, static_cast<std::size_t>(offset * k));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const T* src = scatter_buf_.data() + static_cast<index_t>(i) * k;
        T* dst = x_v.data() + rows[i] * k;
        for (index_t j = 0; j < k; ++j) dst[j] += src[j];
      }
    }
    win.close();
  }

 protected:
  // R = V: both moves are copies.
  void input_to_rows(std::span<const T> x_v, index_t, std::span<T> x_r) override {
    std::copy(x_v.begin(), x_v.end(), x_r.begin());
  }
  void rows_to_input(std::span<const T> x_r, index_t, std::span<T> x_v) override {
    std::copy(x_r.begin(), x_r.end(), x_v.begin());
  }

 private:
  // The owned rows with columns relabeled: owned -> [0, own), ghost g ->
  // own + index(g) in the sorted list of distinct remote neighbors.
  CsrMatrix<T> build_partition(const CsrMatrix<T>& a_global) {
    const dist::BlockRange vr = this->v_;
    const CsrMatrix<T> rows = a_global.block(vr.begin, vr.end, 0, this->n_);
    for (index_t e = 0; e < rows.nnz(); ++e) {
      const index_t c = rows.col_at(e);
      if (c < vr.begin || c >= vr.end) ghost_ids_.push_back(c);
    }
    std::sort(ghost_ids_.begin(), ghost_ids_.end());
    ghost_ids_.erase(std::unique(ghost_ids_.begin(), ghost_ids_.end()), ghost_ids_.end());

    const index_t own = vr.size();
    CooMatrix<T> coo;
    coo.n_rows = own;
    coo.n_cols = own + num_ghosts();
    coo.reserve(static_cast<std::size_t>(rows.nnz()));
    for (index_t i = 0; i < own; ++i) {
      for (index_t e = rows.row_begin(i); e < rows.row_end(i); ++e) {
        const index_t c = rows.col_at(e);
        index_t lc = c - vr.begin;
        if (c < vr.begin || c >= vr.end) {
          const auto it = std::lower_bound(ghost_ids_.begin(), ghost_ids_.end(), c);
          lc = own + static_cast<index_t>(it - ghost_ids_.begin());
        }
        coo.push_back(i, lc, rows.val_at(e));
      }
    }
    return CsrMatrix<T>::from_coo(coo);
  }

  // Every rank learns, for every other rank r, which of r's ghosts it owns
  // and where they start in r's ghost list: the owned block is contiguous
  // in a sorted list.
  void exchange_ghost_lists() {
    comm::Communicator& world = this->world_;
    const auto p = static_cast<std::size_t>(world.size());
    const dist::BlockRange vr = this->v_;
    std::vector<std::size_t> offsets;
    const std::vector<index_t> all =
        world.allgatherv(std::span<const index_t>(ghost_ids_), &offsets);
    incoming_offset_.assign(p, 0);
    incoming_rows_.assign(p, {});
    for (std::size_t r = 0; r < p; ++r) {
      if (static_cast<int>(r) == world.rank()) continue;
      const index_t* first = all.data() + offsets[r];
      const index_t* last = all.data() + (r + 1 < p ? offsets[r + 1] : all.size());
      const index_t* lo = std::lower_bound(first, last, vr.begin);
      const index_t* hi = std::lower_bound(first, last, vr.end);
      incoming_offset_[r] = static_cast<index_t>(lo - first);
      for (const index_t* it = lo; it != hi; ++it) {
        incoming_rows_[r].push_back(*it - vr.begin);
      }
    }
  }

  std::vector<index_t> ghost_ids_;                  // sorted global ghost ids
  std::vector<index_t> incoming_offset_;            // per source rank
  std::vector<std::vector<index_t>> incoming_rows_;  // per source rank, owned-local
  DenseMatrix<T> scatter_buf_;                      // one rank's partials
};

// The baseline engine: `dist::DistEngine` over the ghost-exchange layout, a
// 1D row partition.
template <typename T>
class DistLocalEngine : public dist::DistEngine<T> {
 public:
  DistLocalEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
                  GnnModel<T>& model)
      : dist::DistEngine<T>(std::make_unique<GhostLayout<T>>(world, a_global), model,
                            dist::DistPolicy::k1D) {}

  const dist::BlockRange& owned_block() const { return this->layout().input_rows(); }
  index_t num_ghosts() const {
    return static_cast<const GhostLayout<T>&>(this->layout()).num_ghosts();
  }
};

}  // namespace agnn::baseline
