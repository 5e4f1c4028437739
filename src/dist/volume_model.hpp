// Closed-form per-layer communication-volume predictions (Section 7), exact
// to the byte for the distributed engine's forward under each layout.
//
// On the 1.5D layout the engine moves, per rank and per layer (q = sqrt(p),
// block height b = ceil(n/q), element count in words):
//
//   GCN   k^2        + 3 b k                  (bcast W; allreduce; redistribute)
//   VA    k^2        + 4 b k                  (+ the partner feature exchange)
//   AGNN  k^2        + 4 b k
//   GIN   2 k^2      + 4 b k                  (second MLP matrix broadcast)
//   GAT   k^2 + 2 k  + 3 b k + 5 b            (s-vector exchange + distributed
//                                              softmax max/sum reductions)
//
// — all O(n k / sqrt(p) + k^2), the Section 7.1 bound. The local
// (ghost-exchange) engine's volume depends on the partition: a rank sends
// one feature row per ghost entry it owns across all other ranks' ghost
// lists, which `predicted_local_forward_bytes` computes from the graph.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/layer.hpp"
#include "dist/dist_policy.hpp"
#include "dist/process_grid.hpp"

namespace agnn::dist {

namespace detail_volume {

// Parameter-broadcast words per layer (W, and for GAT the attention vector,
// for GIN the second MLP matrix), charged to every rank when p > 1.
inline double param_words(ModelKind kind, index_t k) {
  const double kd = static_cast<double>(k);
  switch (kind) {
    case ModelKind::kGIN: return 2 * kd * kd;
    case ModelKind::kGAT: return kd * kd + 2 * kd;
    default: return kd * kd;
  }
}

inline index_t overlap(const BlockRange& a, const BlockRange& b) {
  return std::max<index_t>(0, std::min(a.end, b.end) - std::max(a.begin, b.begin));
}

}  // namespace detail_volume

// Max-per-rank words moved by ONE forward layer of the global engine.
// Exact when n is divisible by q; an upper bound otherwise (uses the
// largest block for every term).
inline double predicted_global_forward_words(ModelKind kind, index_t n, index_t k,
                                             int ranks) {
  const auto q = static_cast<index_t>(ProcessGrid::side_for(ranks));
  if (q == 1) return 0.0;  // single rank: every collective is free
  const double b = std::ceil(static_cast<double>(n) / static_cast<double>(q));
  const double kd = static_cast<double>(k);
  switch (kind) {
    case ModelKind::kGCN: return kd * kd + 3 * b * kd;
    case ModelKind::kVA: return kd * kd + 4 * b * kd;
    case ModelKind::kAGNN: return kd * kd + 4 * b * kd;
    case ModelKind::kGIN: return 2 * kd * kd + 4 * b * kd;
    case ModelKind::kGAT: return kd * kd + 2 * kd + 3 * b * kd + 5 * b;
  }
  return 0.0;
}

// Max-per-rank words moved by ONE forward layer of the 1D row-block layout:
// the parameter broadcast plus the allgather of everyone else's feature
// rows (GAT's H' = H W rows, of the same width k here). Exact for every
// (n, p) — allgatherv charges (total - own) words, so the max lands on a
// rank owning a small block.
inline double predicted_1d_forward_words(index_t n, index_t k, int ranks,
                                         ModelKind kind) {
  if (ranks == 1) return 0.0;
  double max_words = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const BlockRange vr = block_range(n, ranks, r);
    const double words =
        detail_volume::param_words(kind, k) +
        static_cast<double>(n - vr.size()) * static_cast<double>(k);
    max_words = std::max(max_words, words);
  }
  return max_words;
}

// Max-per-rank words moved by ONE forward layer of the SUMMA engine on an
// r x c x d grid, exact for every (n, shape): replays the engine's protocol
// per rank — the owner-charged gathers/scatters, the pipelined panel
// broadcasts (volume-identical to their blocking forms), and the row-family
// allreduce — and takes the max. Graph-independent: every term depends only
// on the block geometry.
inline double predicted_summa_forward_words(ModelKind kind, index_t n, index_t k,
                                            const GridShape& shape) {
  const int r = shape.rows, c = shape.cols, d = shape.depth;
  if (shape.size() == 1) return 0.0;
  const double kd = static_cast<double>(k);
  double max_words = 0.0;
  for (int gi = 0; gi < r; ++gi) {
    for (int gj = 0; gj < c; ++gj) {
      for (int gl = 0; gl < d; ++gl) {
        const BlockRange ri = block_range(n, r, gi);
        const BlockRange cj = block_range(n, c, gj);
        const BlockRange ds = block_range(cj.size(), d, gl);
        const BlockRange cs{cj.begin + ds.begin, cj.begin + ds.end};
        const BlockRange vs = block_range(cj.size(), r, gi);
        const BlockRange v{cj.begin + vs.begin, cj.begin + vs.end};
        const double own_in_ri =
            static_cast<double>(detail_volume::overlap(v, ri));
        // Rows served from this rank's V block to the layout-R gathers of
        // the c requesters per grid row, minus its own (free) fetches.
        const double gather_served =
            static_cast<double>(c) * static_cast<double>(v.size()) - own_in_ri;
        // Rows served redistributing layout R back to the owned V rows.
        const double scatter_served =
            static_cast<double>(detail_volume::overlap(cj, ri)) - own_in_ri;
        double words = detail_volume::param_words(kind, k);
        if (kind == ModelKind::kGIN || kind == ModelKind::kVA ||
            kind == ModelKind::kAGNN) {
          words += gather_served * kd;  // H rows R_i
        }
        if (kind == ModelKind::kGAT) {
          words += gather_served;  // the s1 score vector, width 1
        }
        if (r > 1) {
          // The SUMMA panel broadcasts assemble all of C_j^l on each slice.
          words += static_cast<double>(cs.size()) * kd;
        }
        if (c * d > 1) {
          words += 2.0 * static_cast<double>(ri.size()) * kd;  // row allreduce
          if (kind == ModelKind::kGAT) {
            words += 4.0 * static_cast<double>(ri.size());  // softmax max+sum
          }
        }
        words += scatter_served * kd;
        max_words = std::max(max_words, words);
      }
    }
  }
  return max_words;
}

// Max-per-rank words for ONE forward layer under any member of the
// distribution-policy family. 1D and SUMMA replays are exact for every
// (n, p); the 1.5D closed form is exact when sqrt(p) divides n.
inline double predicted_policy_forward_words(DistPolicy policy, ModelKind kind,
                                             index_t n, index_t k, int ranks,
                                             int depth_hint = 0) {
  switch (policy) {
    case DistPolicy::k1D:
      return predicted_1d_forward_words(n, k, ranks, kind);
    case DistPolicy::k1_5D:
      return predicted_global_forward_words(kind, n, k, ranks);
    case DistPolicy::k2D:
    case DistPolicy::k3D:
      return predicted_summa_forward_words(kind, n, k,
                                           grid_for(policy, ranks, depth_hint));
  }
  return 0.0;
}

// The Section 7.1 asymptotic bound c*(n k / sqrt(p) + k^2) with c = 1,
// for normalized measured/bound ratios.
inline double section7_bound_words(index_t n, index_t k, int ranks) {
  const double q = std::sqrt(static_cast<double>(ranks));
  return static_cast<double>(n) * static_cast<double>(k) / q +
         static_cast<double>(k) * static_cast<double>(k);
}

// Closed-form asymptotic per-rank bound for each family member, the
// policy-generalized Section 7.1 term (words; constant factor 1):
//   1D    n k            (the full feature matrix every layer)
//   1.5D  n k / sqrt(p) + k^2
//   2D    n k (1/r + 1/c) + k^2     (panel broadcasts + row allreduce)
//   3D    n k (1/r + 1/(c d)) + k^2 (depth shrinks the stationary slice)
inline double policy_bound_words(DistPolicy policy, index_t n, index_t k,
                                 int ranks, int depth_hint = 0) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  switch (policy) {
    case DistPolicy::k1D: return nd * kd;
    case DistPolicy::k1_5D: return section7_bound_words(n, k, ranks);
    case DistPolicy::k2D:
    case DistPolicy::k3D: {
      const GridShape s = grid_for(policy, ranks, depth_hint);
      return nd * kd *
                 (1.0 / static_cast<double>(s.rows) +
                  1.0 / static_cast<double>(s.cols * s.depth)) +
             kd * kd;
    }
  }
  return 0.0;
}

// Max-per-rank bytes for one forward layer of the LOCAL (ghost-exchange)
// engine: for each rank, the feature rows it must serve to every other
// rank's ghost list, plus the parameter broadcast. Computed exactly from
// the 1D partition of `adj`.
template <typename T>
double predicted_local_forward_bytes(const CsrMatrix<T>& adj, int ranks, index_t k,
                                     bool has_attention_vector = false,
                                     bool has_second_matrix = false) {
  const index_t n = adj.rows();
  // ghosts[r] = sorted distinct remote neighbors of rank r's owned rows.
  std::vector<std::vector<index_t>> ghosts(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const auto range = block_range(n, ranks, r);
    std::vector<index_t>& g = ghosts[static_cast<std::size_t>(r)];
    for (index_t i = range.begin; i < range.end; ++i) {
      for (index_t e = adj.row_begin(i); e < adj.row_end(i); ++e) {
        const index_t c = adj.col_at(e);
        if (c < range.begin || c >= range.end) g.push_back(c);
      }
    }
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
  }
  // served[o] = total ghost entries owned by rank o across all ranks.
  std::vector<double> served(static_cast<std::size_t>(ranks), 0.0);
  for (int r = 0; r < ranks; ++r) {
    for (const index_t id : ghosts[static_cast<std::size_t>(r)]) {
      // Owner lookup by block arithmetic.
      int lo = 0, hi = ranks - 1;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (block_range(n, ranks, mid).end <= id) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      served[static_cast<std::size_t>(lo)] += 1.0;
    }
  }
  double max_words = 0.0;
  const double kd = static_cast<double>(k);
  double param_words = kd * kd;  // W broadcast, charged to every rank
  if (has_attention_vector) param_words += 2 * kd;
  if (has_second_matrix) param_words += kd * kd;
  for (int r = 0; r < ranks; ++r) {
    max_words = std::max(
        max_words, served[static_cast<std::size_t>(r)] * kd +
                       (ranks > 1 ? param_words : 0.0));
  }
  return max_words * sizeof(T);
}

}  // namespace agnn::dist
