// The layouts of the distribution-policy family (dist_policy.hpp).
//
// Every member keeps its adjacency block stationary and moves only dense
// rows. A rank works on three row sets of the n vertices:
//
//   V  the input layout: the rows of H every layer consumes and produces;
//   R  the rows of the rank's A block, where aggregation partial sums land;
//   C  the columns of the rank's A block, the column operand of SpMM/SDDMM.
//
// A `Layout` is those three sets plus the few primitives a layer needs to
// move data between them; dist/dist_engine.hpp writes each model's forward
// and backward once over this interface. The members differ only here:
//
//   primitive          1D (p x 1)      1.5D (q x q)      2D / 3D (r x c x d)
//   V                  rows B(n,p,i)   C_j (replicated)  V_ij (sub-block of C_j)
//   fetch_rows  V->R   copy (R = V)    partner get       gets from the V owners
//   assemble_cols V->C allgather,      copy (C = V),     r pipelined panel
//                      one stage       one stage         ibroadcasts
//   reduce_rows        none            grid row          row family (c*d)
//   to_input    R->V   copy            partner get       gets from the R owners
//   reduce_cols C->V   world           grid column       column family (r*d)
//   owns_row_copy      always          grid column 0     (j, l) = (0, 0)
//   owns_input_copy    always          grid row 0        depth 0
//
// The two predicates pick one copy of each replicated R or V block, so
// sums over the global vertex set (weight gradients, the loss, the output
// gather) count every row once. The local formulation's ghost exchange is
// one more A-stationary row layout over these primitives
// (baseline/dist_local_engine.hpp): V = R = B(n,p,i), C = owned ∪ ghosts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "core/workspace.hpp"
#include "dist/dist_policy.hpp"
#include "dist/process_grid.hpp"
#include "tensor/csr_matrix.hpp"
#include "tensor/dense_matrix.hpp"

namespace agnn::dist {

template <typename T>
class Layout {
 public:
  // One stage of the column operand: rows `cols` of the C-layout operand
  // have landed, and local row i's edges into them are [begin(i), end(i)).
  struct Stage {
    BlockRange cols;
    const index_t* first;
    const index_t* last;
    index_t begin(index_t i) const { return first[i]; }
    index_t end(index_t i) const { return last[i]; }
  };
  using StageFn = std::function<void(const Stage&)>;

  virtual ~Layout() = default;
  Layout(const Layout&) = delete;
  Layout& operator=(const Layout&) = delete;

  comm::Communicator& world() { return world_; }
  index_t num_vertices() const { return n_; }
  const BlockRange& input_rows() const { return v_; }
  // The stationary A block (rows R, columns C) and its transpose.
  const CsrMatrix<T>& adjacency() const { return a_; }
  const CsrMatrix<T>& adjacency_t() const { return a_t_; }
  bool owns_row_copy() const { return owns_row_copy_; }
  bool owns_input_copy() const { return owns_input_copy_; }

  // V -> R: the rows of the A block, from the rows this rank holds.
  void fetch_rows(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_r) {
    x_r.resize(r_.size(), x_v.cols());
    input_to_rows(x_v.flat(), x_v.cols(), x_r.flat());
  }
  void fetch_rows(const std::vector<T>& x_v, std::vector<T>& x_r) {
    x_r.resize(static_cast<std::size_t>(r_.size()));
    input_to_rows(x_v, 1, x_r);
  }

  // R -> V: rows that are complete on every member of the row family.
  void to_input(const DenseMatrix<T>& x_r, DenseMatrix<T>& x_v) {
    x_v.resize(v_.size(), x_r.cols());
    rows_to_input(x_r.flat(), x_r.cols(), x_v.flat());
  }
  void to_input(const std::vector<T>& x_r, std::vector<T>& x_v) {
    x_v.resize(static_cast<std::size_t>(v_.size()));
    rows_to_input(x_r, 1, x_v);
  }

  // V -> C in stages: `fn` runs once per stage, after that stage's rows of
  // x_c have landed and before any later stage's have.
  virtual void assemble_cols(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c,
                             const StageFn& fn) = 0;

  // Sum (max) R-layout partials over the ranks sharing the row block.
  void reduce_rows(std::span<T> x_r) {
    if (row_comm_) row_comm_->allreduce_sum(x_r);
  }
  void reduce_rows_max(std::span<T> x_r) {
    if (row_comm_) row_comm_->allreduce_max(x_r);
  }

  // Sum C-layout partials over the ranks sharing the column block and keep
  // this rank's V rows of the result.
  virtual void reduce_cols(const DenseMatrix<T>& x_c, DenseMatrix<T>& x_v) {
    const index_t k = x_c.cols();
    const index_t off = c_.begin - cfam_.begin;
    DenseMatrix<T>& full = col_scratch_;
    full.resize(cfam_.size(), k);
    full.set_zero();
    std::copy(x_c.flat().begin(), x_c.flat().end(), full.data() + off * k);
    col_comm_->allreduce_sum(full.flat());
    x_v.resize(v_.size(), k);
    const T* src = full.data() + (v_.begin - cfam_.begin) * k;
    std::copy(src, src + v_.size() * k, x_v.data());
  }

  // The global matrix from its V-layout blocks (the debug/output path).
  virtual DenseMatrix<T> gather(const DenseMatrix<T>& x_v) {
    std::span<const T> contrib;
    if (owns_input_copy_) contrib = x_v.flat();
    const std::vector<T> flat = world_.allgatherv(contrib);
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == n_ * x_v.cols(),
                "gather: unexpected total size");
    return DenseMatrix<T>(n_, x_v.cols(), flat);
  }

 protected:
  Layout(comm::Communicator& world, index_t n) : world_(world), n_(n) {}

  virtual void input_to_rows(std::span<const T> x_v, index_t k,
                             std::span<T> x_r) = 0;
  virtual void rows_to_input(std::span<const T> x_r, index_t k,
                             std::span<T> x_v) = 0;

  // The A block R x C of the global adjacency.
  CsrMatrix<T> block_of(const CsrMatrix<T>& a_global) const {
    AGNN_ASSERT(a_global.rows() == n_ && a_global.cols() == n_,
                "adjacency must be square");
    return a_global.block(r_.begin, r_.end, c_.begin, c_.end);
  }

  // Keep the A block and index its stages: `bounds` holds the C-relative
  // first row of each stage's panel, then C's size.
  void init_blocks(CsrMatrix<T> block, std::vector<index_t> bounds) {
    a_ = std::move(block);
    a_t_ = a_.transposed();
    bounds_ = std::move(bounds);
    const std::size_t stages = bounds_.size() - 1;
    const index_t rows = a_.rows();
    stage_ptr_.assign((stages + 1) * static_cast<std::size_t>(rows), 0);
    for (index_t i = 0; i < rows; ++i) {
      if (stages > 1) {
        for (index_t e = a_.row_begin(i) + 1; e < a_.row_end(i); ++e) {
          AGNN_ASSERT(a_.col_at(e - 1) < a_.col_at(e),
                      "staged layouts need sorted block columns");
        }
      }
      index_t e = a_.row_begin(i);
      for (std::size_t t = 0; t <= stages; ++t) {
        while (e < a_.row_end(i) && a_.col_at(e) < bounds_[t]) ++e;
        stage_ptr_[t * static_cast<std::size_t>(rows) +
                   static_cast<std::size_t>(i)] = e;
      }
    }
  }

  Stage stage(index_t t) const {
    const auto rows = static_cast<std::size_t>(a_.rows());
    const auto ut = static_cast<std::size_t>(t);
    return {{bounds_[ut], bounds_[ut + 1]}, stage_ptr_.data() + ut * rows,
            stage_ptr_.data() + (ut + 1) * rows};
  }

  // Fill x_out (rows `range`, width k) with one-sided gets: owner(x) names
  // the rank serving global row x and the first and end rows of its block.
  template <typename OwnerFn>
  void get_runs(std::span<const T> mine, index_t k, BlockRange range,
                std::span<T> x_out, OwnerFn&& owner) {
    auto win = world_.expose(mine);
    for (index_t x = range.begin; x < range.end;) {
      const auto [rank, first, last] = owner(x);
      const index_t run_end = std::min(range.end, last);
      win.get(x_out.subspan(static_cast<std::size_t>((x - range.begin) * k),
                            static_cast<std::size_t>((run_end - x) * k)),
              rank, static_cast<std::size_t>((x - first) * k));
      x = run_end;
    }
    win.close();
  }

  struct Owner {
    int rank;
    index_t first, last;
  };

  comm::Communicator& world_;
  index_t n_;
  BlockRange v_, r_, c_;
  BlockRange cfam_;  // the column family's rows; contains C and V
  bool owns_row_copy_ = true;
  bool owns_input_copy_ = true;
  std::optional<comm::Communicator> row_comm_;  // empty: rows are complete
  std::optional<comm::Communicator> col_comm_;

 private:
  CsrMatrix<T> a_, a_t_;
  std::vector<index_t> bounds_;     // stage panel bounds, C-relative
  std::vector<index_t> stage_ptr_;  // [stage][row] first edge at/after panel
  DenseMatrix<T> col_scratch_;
};

// 1D: p row blocks. A rank's A rows are its own feature rows, and its A
// columns span every vertex, so a layer allgathers H (n k words per rank) and
// the backward allreduces the n-row column partials over the world.
template <typename T>
class RowLayout final : public Layout<T> {
 public:
  RowLayout(comm::Communicator& world, const CsrMatrix<T>& a_global)
      : Layout<T>(world, a_global.rows()) {
    const index_t n = this->n_;
    this->v_ = this->r_ = block_range(n, world.size(), world.rank());
    this->c_ = this->cfam_ = {0, n};
    this->col_comm_.emplace(world);
    this->init_blocks(this->block_of(a_global), {0, n});
  }

  void assemble_cols(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c,
                     const typename Layout<T>::StageFn& fn) override {
    const std::vector<T> flat = this->world_.allgatherv(x_v.flat());
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == this->n_ * x_v.cols(),
                "1d allgather: unexpected size");
    x_c.resize(this->n_, x_v.cols());
    std::copy(flat.begin(), flat.end(), x_c.data());
    fn(this->stage(0));
  }

 protected:
  void input_to_rows(std::span<const T> x_v, index_t,
                     std::span<T> x_r) override {
    std::copy(x_v.begin(), x_v.end(), x_r.begin());
  }
  void rows_to_input(std::span<const T> x_r, index_t,
                     std::span<T> x_v) override {
    std::copy(x_r.begin(), x_r.end(), x_v.begin());
  }
};

// 1.5D: the paper's square q x q grid (Section 6.3). Rank (i, j) holds the
// A block (R_i, C_j) and the feature rows C_j, replicated down the grid
// column. R_i and C_i are the same rows, so both layout moves are a get of
// one n k / q block from the transpose partner (j, i).
template <typename T>
class SquareLayout final : public Layout<T> {
 public:
  SquareLayout(comm::Communicator& world, const CsrMatrix<T>& a_global)
      : Layout<T>(world, a_global.rows()),
        grid_(ProcessGrid::side_for(world.size())),
        partner_(grid_.partner_of(world.rank())) {
    const int gi = grid_.row_of(world.rank());
    const int gj = grid_.col_of(world.rank());
    const index_t n = this->n_;
    this->r_ = block_range(n, grid_.q, gi);
    this->v_ = this->c_ = this->cfam_ = block_range(n, grid_.q, gj);
    this->owns_row_copy_ = gj == 0;
    this->owns_input_copy_ = gi == 0;
    this->row_comm_.emplace(world.split(gi, gj));
    this->col_comm_.emplace(world.split(grid_.q + gj, gi));
    this->init_blocks(this->block_of(a_global), {0, this->c_.size()});
  }

  // C = V: the column operand is the input block itself.
  void assemble_cols(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c,
                     const typename Layout<T>::StageFn& fn) override {
    x_c = x_v;
    fn(this->stage(0));
  }

 protected:
  void input_to_rows(std::span<const T> x_v, index_t k,
                     std::span<T> x_r) override {
    partner_get(x_v, k, this->r_, x_r);
  }
  void rows_to_input(std::span<const T> x_r, index_t k,
                     std::span<T> x_v) override {
    partner_get(x_r, k, this->v_, x_v);
  }

 private:
  void partner_get(std::span<const T> mine, index_t k, BlockRange range,
                   std::span<T> out) {
    this->get_runs(mine, k, range, out, [&](index_t) {
      return typename Layout<T>::Owner{partner_, range.begin, range.end};
    });
  }

  ProcessGrid grid_;
  int partner_;
};

// 2D / 3D: SUMMA on an r x c x d grid. Rank (i, j, l) holds the A block
// (R_i, C_j^l), where the depth slices C_j^l partition the column block
// C_j, and owns the feature rows V_ij, the i-th sub-block of C_j,
// replicated over depth. The column operand C_j^l is assembled by r panel
// broadcasts down the SUMMA slice (the r ranks sharing (j, l)), pipelined:
// panel t+1 is in flight while stage t computes, so the stage's kernel span
// nests inside the still-open ibroadcast span in the trace.
template <typename T>
class SummaLayout final : public Layout<T> {
 public:
  SummaLayout(comm::Communicator& world, const CsrMatrix<T>& a_global,
              const GridShape& shape)
      : Layout<T>(world, a_global.rows()),
        rows_(shape.rows),
        cols_(shape.cols),
        gl_(world.rank() / (shape.rows * shape.cols)),
        gi_((world.rank() % (shape.rows * shape.cols)) / shape.cols),
        gj_(world.rank() % shape.cols) {
    const index_t n = this->n_;
    this->r_ = block_range(n, rows_, gi_);
    this->cfam_ = block_range(n, cols_, gj_);
    const BlockRange ds = block_range(this->cfam_.size(), shape.depth, gl_);
    this->c_ = {this->cfam_.begin + ds.begin, this->cfam_.begin + ds.end};
    const BlockRange vs = block_range(this->cfam_.size(), rows_, gi_);
    this->v_ = {this->cfam_.begin + vs.begin, this->cfam_.begin + vs.end};
    this->owns_row_copy_ = gj_ == 0 && gl_ == 0;
    this->owns_input_copy_ = gl_ == 0;
    // Row family (fixed i): the c*d ranks whose partials sum to R_i.
    this->row_comm_.emplace(world.split(gi_, world.rank()));
    // Column family (fixed j): the r*d ranks that share C_j.
    this->col_comm_.emplace(world.split(gj_, world.rank()));
    // SUMMA slice (fixed j and l), keyed by grid row: stage t's root is t.
    slice_comm_.emplace(world.split(gj_ * shape.depth + gl_, gi_));
    // Panel t is V_tj ∩ C_j^l: the rows grid row t owns.
    std::vector<index_t> bounds(static_cast<std::size_t>(rows_) + 1);
    for (int t = 0; t <= rows_; ++t) {
      const index_t vb =
          t == rows_ ? this->cfam_.end
                  : this->cfam_.begin +
                        block_range(this->cfam_.size(), rows_, t).begin;
      bounds[static_cast<std::size_t>(t)] =
          std::clamp(vb, this->c_.begin, this->c_.end) - this->c_.begin;
    }
    this->init_blocks(this->block_of(a_global), std::move(bounds));
  }

  void assemble_cols(const DenseMatrix<T>& x_v, DenseMatrix<T>& x_c,
                     const typename Layout<T>::StageFn& fn) override {
    using Pending = comm::Communicator::Pending<T>;
    x_c.resize(this->c_.size(), x_v.cols());
    std::optional<Pending> cur(post_stage(0, x_c, x_v));
    std::optional<Pending> next;
    for (index_t t = 0; t < rows_; ++t) {
      cur->wait();
      if (t + 1 < rows_) next = post_stage(t + 1, x_c, x_v);
      fn(this->stage(t));
      cur = std::move(next);
      next.reset();
    }
  }

  // The V blocks partition [0, n) once per depth slice; depth 0's ranks are
  // world ranks 0..r*c-1 in (i, j) row-major order, while global row order
  // is j-major (V_ij sits inside C_j), so the gathered blocks are reordered.
  DenseMatrix<T> gather(const DenseMatrix<T>& x_v) override {
    std::span<const T> contrib;
    if (this->owns_input_copy_) contrib = x_v.flat();
    const std::vector<T> flat = this->world_.allgatherv(contrib);
    const index_t n = this->n_, k = x_v.cols();
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == n * k,
                "gather: unexpected total size");
    DenseMatrix<T> out(n, k);
    std::size_t off = 0;
    for (int i2 = 0; i2 < rows_; ++i2) {
      for (int j2 = 0; j2 < cols_; ++j2) {
        const BlockRange cjb = block_range(n, cols_, j2);
        const BlockRange sub = block_range(cjb.size(), rows_, i2);
        const auto cnt = static_cast<std::size_t>(sub.size() * k);
        std::memcpy(out.data() + (cjb.begin + sub.begin) * k, flat.data() + off,
                    cnt * sizeof(T));
        off += cnt;
      }
    }
    return out;
  }

 protected:
  // R_i from the V owners in this rank's depth slice.
  void input_to_rows(std::span<const T> x_v, index_t k,
                     std::span<T> x_r) override {
    const index_t n = this->n_;
    this->get_runs(x_v, k, this->r_, x_r, [&](index_t x) {
      const index_t j2 = block_index_of(n, cols_, x);
      const BlockRange cjb = block_range(n, cols_, j2);
      const index_t i2 = block_index_of(cjb.size(), rows_, x - cjb.begin);
      const BlockRange sub = block_range(cjb.size(), rows_, i2);
      return typename Layout<T>::Owner{rank_of(i2, j2), cjb.begin + sub.begin,
                                       cjb.begin + sub.end};
    });
  }
  // V_ij from the member of each row family that shares this rank's (j, l).
  void rows_to_input(std::span<const T> x_r, index_t k,
                     std::span<T> x_v) override {
    const index_t n = this->n_;
    this->get_runs(x_r, k, this->v_, x_v, [&](index_t x) {
      const index_t i2 = block_index_of(n, rows_, x);
      const BlockRange rb = block_range(n, rows_, i2);
      return typename Layout<T>::Owner{rank_of(i2, gj_), rb.begin, rb.end};
    });
  }

 private:
  int rank_of(index_t i, index_t j) const {
    return gl_ * (rows_ * cols_) + static_cast<int>(i) * cols_ + static_cast<int>(j);
  }

  // Post the broadcast of stage t's panel down the SUMMA slice. The root
  // (grid row t) owns the panel rows in layout V and seeds its own C rows.
  comm::Communicator::Pending<T> post_stage(index_t t, DenseMatrix<T>& x_c,
                                            const DenseMatrix<T>& x_v) {
    const index_t k = x_c.cols();
    const BlockRange p = this->stage(t).cols;
    T* dst = x_c.data() + p.begin * k;
    if (gi_ == static_cast<int>(t) && p.size() > 0) {
      const T* src = x_v.data() + ((this->c_.begin + p.begin) - this->v_.begin) * k;
      std::memcpy(dst, src, static_cast<std::size_t>(p.size() * k) * sizeof(T));
    }
    return slice_comm_->ibroadcast(
        std::span<T>(dst, static_cast<std::size_t>(p.size() * k)),
        static_cast<int>(t));
  }

  int rows_, cols_;
  int gl_, gi_, gj_;
  std::optional<comm::Communicator> slice_comm_;
};

// The layout of one family member; collective, like the engines using it.
template <typename T>
std::unique_ptr<Layout<T>> make_layout(comm::Communicator& world,
                                       const CsrMatrix<T>& a_global,
                                       const GridShape& shape) {
  AGNN_ASSERT(shape.size() == world.size(),
              "grid shape must match the rank count");
  switch (shape.policy) {
    case DistPolicy::k1D:
      AGNN_ASSERT(shape.cols == 1 && shape.depth == 1, "1d grids are p x 1");
      return std::make_unique<RowLayout<T>>(world, a_global);
    case DistPolicy::k1_5D:
      AGNN_ASSERT(shape.rows == shape.cols && shape.depth == 1,
                  "1.5d grids are square");
      return std::make_unique<SquareLayout<T>>(world, a_global);
    case DistPolicy::k2D:
    case DistPolicy::k3D:
      return std::make_unique<SummaLayout<T>>(world, a_global, shape);
  }
  AGNN_ASSERT(false, "unknown distribution policy");
  return nullptr;
}

// Distributed graph softmax (Section 4.2 executed blockwise): the per-row
// max and sum span every rank holding a column block of the row. Normalizes
// `s` (holding the raw E values) in place; reduction vectors are pooled.
template <typename T>
void dist_row_softmax_inplace(CsrMatrix<T>& s, Layout<T>& layout,
                              Workspace<T>& ws) {
  const index_t rows = s.rows();
  auto row_max_h = ws.acquire_vec(rows);
  std::vector<T>& row_max = *row_max_h;
  std::fill(row_max.begin(), row_max.end(),
            -std::numeric_limits<T>::infinity());
  for (index_t i = 0; i < rows; ++i) {
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      row_max[static_cast<std::size_t>(i)] =
          std::max(row_max[static_cast<std::size_t>(i)], s.val_at(e));
    }
  }
  layout.reduce_rows_max(std::span<T>(row_max));
  auto v = s.vals_mutable();
  auto row_sum_h = ws.acquire_vec(rows);
  std::vector<T>& row_sum = *row_sum_h;
  std::fill(row_sum.begin(), row_sum.end(), T(0));
  for (index_t i = 0; i < rows; ++i) {
    const T mx = row_max[static_cast<std::size_t>(i)];
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      const T ex = std::exp(v[static_cast<std::size_t>(e)] - mx);
      v[static_cast<std::size_t>(e)] = ex;
      row_sum[static_cast<std::size_t>(i)] += ex;
    }
  }
  layout.reduce_rows(std::span<T>(row_sum));
  for (index_t i = 0; i < rows; ++i) {
    const T rs = row_sum[static_cast<std::size_t>(i)];
    if (rs <= T(0)) continue;
    const T inv = T(1) / rs;
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      v[static_cast<std::size_t>(e)] *= inv;
    }
  }
}

}  // namespace agnn::dist
