// KernelSchedule: edge-balanced adaptive scheduling for the fused A-GNN
// kernels.
//
// Every sparse kernel in the project is row-parallel: each output row is
// owned by one thread, so no atomics are needed. On the power-law graphs the
// paper evaluates (Kronecker, MAKG — Section 8) that ownership rule is also
// the failure mode: a handful of hub rows hold a large fraction of the
// edges, and whichever thread draws a hub serializes the whole team while
// everyone else drains the tail. DF-GNN makes the same observation for GPU
// attention kernels and fixes it with balanced-by-edges work partitioning;
// this header is the CPU analogue.
//
// A KernelSchedule is computed once per sparsity pattern (and cached on the
// CsrMatrix) and decomposes the nnz into *chunks* of roughly equal edge
// count. A chunk is either a run of whole rows or a *piece* of one heavy row
// that was split. Pieces accumulate into per-piece partial buffers; a second
// phase combines the partials of each split row in fixed piece order, so the
// result is deterministic: bitwise reproducible run to run and across thread
// counts, because the chunk decomposition depends only on (row_ptr, policy,
// grain) — never on the team size. Rows that are not split go through
// exactly the same per-row arithmetic as the row-parallel path, so their
// outputs are bitwise identical across all three policies.
//
// Policies:
//   * RowParallel  — the legacy path: omp parallel for over rows,
//                    schedule(dynamic, 64). No chunks, no partials.
//   * EdgeBalanced — greedy partition of the nnz into chunks of <= grain
//                    edges; any row larger than the grain is split into
//                    near-equal pieces. Chunks stay in row order.
//   * HybridBinned — degree-aware: rows are binned by log2(degree); heavy
//                    rows (>= 2x grain) are split into near-equal pieces and
//                    issued first, largest degree first, so the long poles
//                    start before the tail; light rows are grouped whole
//                    (never split) into cache-friendly chunks in row order.
//   * Auto         — a cheap degree-skew heuristic picks one of the above.
//
// Env knobs (read per kernel invocation, so tests can flip them):
//   AGNN_SCHEDULE       = auto | row | edge | hybrid   (default auto)
//   AGNN_SCHEDULE_GRAIN = edges per chunk              (default 1024)
// Unset or empty means the default; any other unknown value throws
// std::logic_error naming the variable — a typo that silently fell back to
// the default would make a sweep leg measure the wrong policy.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/common.hpp"
#include "tensor/csr_matrix.hpp"

namespace agnn {

enum class SchedulePolicy : int {
  kAuto = 0,
  kRowParallel,
  kEdgeBalanced,
  kHybridBinned,
};

inline const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kAuto: return "auto";
    case SchedulePolicy::kRowParallel: return "row_parallel";
    case SchedulePolicy::kEdgeBalanced: return "edge_balanced";
    case SchedulePolicy::kHybridBinned: return "hybrid_binned";
  }
  return "?";
}

// Accepts the short and long spellings; returns false on anything else.
inline bool parse_schedule_policy(std::string_view s, SchedulePolicy& out) {
  if (s == "auto" || s.empty()) {
    out = SchedulePolicy::kAuto;
  } else if (s == "row" || s == "row_parallel") {
    out = SchedulePolicy::kRowParallel;
  } else if (s == "edge" || s == "edge_balanced") {
    out = SchedulePolicy::kEdgeBalanced;
  } else if (s == "hybrid" || s == "hybrid_binned") {
    out = SchedulePolicy::kHybridBinned;
  } else {
    return false;
  }
  return true;
}

inline constexpr index_t kDefaultScheduleGrain = 1024;
// The schedule builders and the auto rule compute 4 * grain; the cap keeps
// that product in range.
inline constexpr index_t kMaxScheduleGrain =
    std::numeric_limits<index_t>::max() / 4;

inline SchedulePolicy schedule_policy_from_env() {
  const char* e = std::getenv("AGNN_SCHEDULE");
  if (e == nullptr) return SchedulePolicy::kAuto;
  SchedulePolicy p = SchedulePolicy::kAuto;
  if (!parse_schedule_policy(e, p)) {
    throw std::logic_error(
        std::string("AGNN_SCHEDULE: unknown policy '") + e +
        "' (expected auto, row, edge, hybrid, row_parallel, edge_balanced "
        "or hybrid_binned)");
  }
  return p;
}

inline index_t schedule_grain_from_env() {
  const char* e = std::getenv("AGNN_SCHEDULE_GRAIN");
  if (e == nullptr || *e == '\0') return kDefaultScheduleGrain;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(e, &end, 10);
  if (end == e || *end != '\0' || errno == ERANGE || v <= 0 ||
      v > kMaxScheduleGrain) {
    throw std::logic_error(std::string("AGNN_SCHEDULE_GRAIN: invalid grain '") +
                           e + "' (expected an integer in [1, " +
                           std::to_string(kMaxScheduleGrain) + "])");
  }
  return static_cast<index_t>(v);
}

// Degree statistics + a log2 histogram, computed in the single stats pass
// over row_ptr. Bin b counts rows whose degree has bit width b: bin 0 holds
// the isolated vertices, bin 1 degree 1, bin 2 degrees 2-3, bin 3 degrees
// 4-7, and so on. The heuristic and the tests both read these.
inline constexpr std::size_t kScheduleDegreeBins = 65;

struct ScheduleStats {
  index_t rows = 0;
  index_t nnz = 0;
  index_t max_row_nnz = 0;
  double mean_row_nnz = 0.0;
  double skew = 0.0;  // max_row_nnz / mean_row_nnz (0 when there are no edges)
  std::array<index_t, kScheduleDegreeBins> bins{};
};

inline ScheduleStats compute_schedule_stats(std::span<const index_t> row_ptr) {
  ScheduleStats st;
  AGNN_ASSERT(!row_ptr.empty(), "schedule: row_ptr must have n+1 entries");
  st.rows = static_cast<index_t>(row_ptr.size()) - 1;
  st.nnz = row_ptr.back();
  for (index_t i = 0; i < st.rows; ++i) {
    const index_t d = row_ptr[static_cast<std::size_t>(i) + 1] -
                      row_ptr[static_cast<std::size_t>(i)];
    st.max_row_nnz = d > st.max_row_nnz ? d : st.max_row_nnz;
    st.bins[std::bit_width(static_cast<std::uint64_t>(d))]++;
  }
  if (st.rows > 0 && st.nnz > 0) {
    st.mean_row_nnz = static_cast<double>(st.nnz) / static_cast<double>(st.rows);
    st.skew = static_cast<double>(st.max_row_nnz) / st.mean_row_nnz;
  }
  return st;
}

// The Auto heuristic. Tiny graphs keep the legacy row-parallel path — the
// chunk machinery costs more than the imbalance it removes. A hub row big
// enough to dominate several whole chunks forces hybrid splitting; moderate
// skew without monster hubs gets the uniform edge partition; balanced
// degree distributions stay row-parallel.
inline constexpr index_t kScheduleAutoMinNnz = index_t(1) << 12;
inline constexpr double kScheduleAutoSkewThreshold = 8.0;

inline SchedulePolicy resolve_schedule_policy(const ScheduleStats& st,
                                              SchedulePolicy requested,
                                              index_t grain) {
  if (requested != SchedulePolicy::kAuto) return requested;
  if (st.nnz < kScheduleAutoMinNnz) return SchedulePolicy::kRowParallel;
  if (st.max_row_nnz >= 4 * grain) return SchedulePolicy::kHybridBinned;
  if (st.skew >= kScheduleAutoSkewThreshold) return SchedulePolicy::kEdgeBalanced;
  return SchedulePolicy::kRowParallel;
}

class KernelSchedule {
 public:
  // A unit of parallel work. Either a run of whole rows (piece == -1, the
  // edge range is exactly the rows' edges) or one piece of a split row
  // (row_end == row_begin + 1, the edge range is a subrange of that row,
  // piece indexes the partial-accumulator slot). Kernels can treat both
  // uniformly: iterate rows [row_begin, row_end) and clamp each row's edge
  // range to [edge_begin, edge_end).
  struct Chunk {
    index_t row_begin = 0;
    index_t row_end = 0;
    index_t edge_begin = 0;
    index_t edge_end = 0;
    index_t piece = -1;
  };

  // One piece of a split row, addressable directly for the phases that walk
  // pieces rather than chunks. `split` indexes split_rows().
  struct Piece {
    index_t row = 0;
    index_t edge_begin = 0;
    index_t edge_end = 0;
    index_t split = 0;
  };

  // A split row's pieces occupy the contiguous slot range
  // [piece_begin, piece_end) in ascending edge order — reductions that walk
  // this range in order are deterministic by construction.
  struct SplitRow {
    index_t row = 0;
    index_t piece_begin = 0;
    index_t piece_end = 0;
  };

  static KernelSchedule build(std::span<const index_t> row_ptr,
                              SchedulePolicy requested, index_t grain) {
    KernelSchedule s;
    s.requested_ = requested;
    s.grain_ = grain < 1 ? 1 : grain;
    s.stats_ = compute_schedule_stats(row_ptr);
    s.policy_ = resolve_schedule_policy(s.stats_, requested, s.grain_);
    switch (s.policy_) {
      case SchedulePolicy::kRowParallel:
        break;  // no chunks: kernels use their legacy row loop
      case SchedulePolicy::kEdgeBalanced:
        s.build_edge_balanced(row_ptr);
        break;
      case SchedulePolicy::kHybridBinned:
        s.build_hybrid_binned(row_ptr);
        break;
      case SchedulePolicy::kAuto:
        AGNN_ASSERT(false, "schedule: auto must resolve to a concrete policy");
    }
    return s;
  }

  SchedulePolicy requested() const { return requested_; }
  SchedulePolicy policy() const { return policy_; }
  index_t grain() const { return grain_; }
  bool row_parallel() const { return policy_ == SchedulePolicy::kRowParallel; }
  const ScheduleStats& stats() const { return stats_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }
  const std::vector<Piece>& pieces() const { return pieces_; }
  const std::vector<SplitRow>& split_rows() const { return split_rows_; }
  index_t num_pieces() const { return static_cast<index_t>(pieces_.size()); }
  index_t num_split_rows() const {
    return static_cast<index_t>(split_rows_.size());
  }

 private:
  // Split row `r` into near-equal pieces of <= grain edges each and record
  // the chunks, pieces, and the SplitRow entry. Requires rn > grain.
  void split_row(index_t r, index_t b, index_t rn) {
    const index_t npieces = (rn + grain_ - 1) / grain_;
    const index_t base = rn / npieces;
    const index_t rem = rn % npieces;
    const index_t piece_begin = static_cast<index_t>(pieces_.size());
    index_t pos = b;
    for (index_t p = 0; p < npieces; ++p) {
      const index_t len = base + (p < rem ? 1 : 0);
      const index_t piece_id = static_cast<index_t>(pieces_.size());
      chunks_.push_back({r, r + 1, pos, pos + len, piece_id});
      pieces_.push_back({r, pos, pos + len,
                         static_cast<index_t>(split_rows_.size())});
      pos += len;
    }
    split_rows_.push_back({r, piece_begin,
                           static_cast<index_t>(pieces_.size())});
  }

  // Greedy uniform partition: accumulate whole rows until a chunk holds
  // >= grain edges; split any single row larger than the grain. Chunks stay
  // in row order. Every row lands in exactly one whole-row chunk or in its
  // pieces; trailing (and interior) empty rows extend the open chunk so
  // row-writing kernels still visit them.
  void build_edge_balanced(std::span<const index_t> row_ptr) {
    const index_t n = stats_.rows;
    index_t open_r0 = 0;  // first row of the open whole-rows chunk
    for (index_t r = 0; r < n; ++r) {
      const index_t b = row_ptr[static_cast<std::size_t>(r)];
      const index_t e = row_ptr[static_cast<std::size_t>(r) + 1];
      const index_t rn = e - b;
      if (rn > grain_) {
        if (open_r0 < r) {
          chunks_.push_back({open_r0, r, row_ptr[static_cast<std::size_t>(open_r0)], b, -1});
        }
        split_row(r, b, rn);
        open_r0 = r + 1;
        continue;
      }
      if (e - row_ptr[static_cast<std::size_t>(open_r0)] >= grain_) {
        chunks_.push_back({open_r0, r + 1, row_ptr[static_cast<std::size_t>(open_r0)], e, -1});
        open_r0 = r + 1;
      }
    }
    if (open_r0 < n) {
      chunks_.push_back({open_r0, n, row_ptr[static_cast<std::size_t>(open_r0)],
                         row_ptr[static_cast<std::size_t>(n)], -1});
    }
  }

  // Degree-binned variant: rows at least 2x the grain count as heavy and are
  // split into near-equal pieces, issued first in descending-degree order so
  // the longest poles start before the tail. Light rows are never split —
  // they are grouped whole, in row order, into chunks of roughly grain
  // edges, which keeps their feature-row accesses as cache-friendly as the
  // legacy path.
  void build_hybrid_binned(std::span<const index_t> row_ptr) {
    const index_t n = stats_.rows;
    const index_t heavy = 2 * grain_;
    std::vector<index_t> heavy_rows;
    for (index_t r = 0; r < n; ++r) {
      const index_t rn = row_ptr[static_cast<std::size_t>(r) + 1] -
                         row_ptr[static_cast<std::size_t>(r)];
      if (rn >= heavy) heavy_rows.push_back(r);
    }
    std::sort(heavy_rows.begin(), heavy_rows.end(),
              [&](index_t x, index_t y) {
                const index_t dx = row_ptr[static_cast<std::size_t>(x) + 1] -
                                   row_ptr[static_cast<std::size_t>(x)];
                const index_t dy = row_ptr[static_cast<std::size_t>(y) + 1] -
                                   row_ptr[static_cast<std::size_t>(y)];
                return dx != dy ? dx > dy : x < y;
              });
    for (const index_t r : heavy_rows) {
      const index_t b = row_ptr[static_cast<std::size_t>(r)];
      split_row(r, b, row_ptr[static_cast<std::size_t>(r) + 1] - b);
    }
    // Light rows: contiguous runs between heavy rows, grouped by edge count.
    index_t open_r0 = -1;
    index_t open_edges = 0;
    auto flush = [&](index_t r_end) {
      if (open_r0 >= 0 && open_r0 < r_end) {
        chunks_.push_back({open_r0, r_end,
                           row_ptr[static_cast<std::size_t>(open_r0)],
                           row_ptr[static_cast<std::size_t>(r_end)], -1});
      }
      open_r0 = -1;
      open_edges = 0;
    };
    for (index_t r = 0; r < n; ++r) {
      const index_t rn = row_ptr[static_cast<std::size_t>(r) + 1] -
                         row_ptr[static_cast<std::size_t>(r)];
      if (rn >= heavy) {
        flush(r);
        continue;
      }
      if (open_r0 < 0) open_r0 = r;
      open_edges += rn;
      if (open_edges >= grain_) flush(r + 1);
    }
    flush(n);
  }

  SchedulePolicy requested_ = SchedulePolicy::kAuto;
  SchedulePolicy policy_ = SchedulePolicy::kRowParallel;
  index_t grain_ = kDefaultScheduleGrain;
  ScheduleStats stats_;
  std::vector<Chunk> chunks_;
  std::vector<Piece> pieces_;
  std::vector<SplitRow> split_rows_;
};

namespace detail {

// Per-OS-thread reusable scratch for piece partials, per-row score buffers,
// and split-row stats. Grown to the high-water mark on first use and reused
// afterwards, so the steady state allocates nothing (the Workspace pool
// cannot serve these: core already links against tensor, and the pool is
// owned by the driving rank thread while these buffers live per OpenMP
// worker). Tag distinguishes arenas of the same element type that are live
// simultaneously inside one kernel.
template <typename U, int Tag = 0>
inline U* schedule_arena(std::size_t n) {
  thread_local std::vector<U> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

inline void schedule_built_mark(const KernelSchedule& s) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("schedule.builds").add(1);
  switch (s.policy()) {
    case SchedulePolicy::kRowParallel:
      reg.counter("schedule.builds.row_parallel").add(1);
      break;
    case SchedulePolicy::kEdgeBalanced:
      reg.counter("schedule.builds.edge_balanced").add(1);
      break;
    case SchedulePolicy::kHybridBinned:
      reg.counter("schedule.builds.hybrid_binned").add(1);
      break;
    case SchedulePolicy::kAuto: break;
  }
  reg.gauge("schedule.last_chunks").set(static_cast<double>(s.chunks().size()));
  reg.gauge("schedule.last_split_rows")
      .set(static_cast<double>(s.num_split_rows()));
  if (obs::Tracer::enabled()) {
    // Instant-marker names must be string literals (the tracer stores the
    // pointer); one per policy, bytes carries the chunk count.
    const char* name = "schedule.row_parallel";
    if (s.policy() == SchedulePolicy::kEdgeBalanced) name = "schedule.edge_balanced";
    if (s.policy() == SchedulePolicy::kHybridBinned) name = "schedule.hybrid_binned";
    obs::Tracer::instance().instant(name, obs::SpanCategory::kKernel,
                                    static_cast<std::uint64_t>(s.chunks().size()), 0);
  }
}

}  // namespace detail

// The cached accessor used by every kernel when no explicit schedule is
// passed: returns the schedule cached on the CSR when it matches the
// requested (policy, grain), rebuilding and re-caching otherwise. Safe to
// call from concurrent rank threads sharing one CsrMatrix — the cache slot
// is an atomic shared_ptr, and a lost race just builds the same schedule
// twice.
template <typename T>
std::shared_ptr<const KernelSchedule> schedule_for(const CsrMatrix<T>& a,
                                                   SchedulePolicy requested,
                                                   index_t grain) {
  auto cached = a.cached_schedule();
  if (cached && cached->requested() == requested && cached->grain() == grain) {
    return cached;
  }
  auto built = std::make_shared<const KernelSchedule>(
      KernelSchedule::build(a.row_ptr(), requested, grain));
  detail::schedule_built_mark(*built);
  a.cache_schedule(built);
  return built;
}

template <typename T>
std::shared_ptr<const KernelSchedule> schedule_for(const CsrMatrix<T>& a) {
  return schedule_for(a, schedule_policy_from_env(), schedule_grain_from_env());
}

namespace detail {

// Every scheduled kernel's dispatch: an explicit schedule wins, otherwise the
// env-driven one cached on the matrix. `owned` keeps the cached schedule
// alive for the duration of the call.
template <typename T>
inline const KernelSchedule* resolve_schedule(
    const CsrMatrix<T>& a, const KernelSchedule* sched,
    std::shared_ptr<const KernelSchedule>& owned) {
  if (sched != nullptr) return sched;
  owned = schedule_for(a);
  return owned.get();
}

// Edge-parallel driver: visits every (row, edge-subrange) of `a` exactly
// once, in parallel. Kernels whose per-edge writes are independent (SDDMM,
// the Psi samplers, scale_rows_cols, ...) route through this — their output
// is bitwise identical under every policy because each v[e] is a pure
// function of e. `body(i, b, e)` receives a row and a clamped edge range.
template <typename T, typename Body>
inline void scheduled_rows(const KernelSchedule& sched, const CsrMatrix<T>& a,
                           Body&& body) {
  if (sched.row_parallel()) {
    const index_t n = a.rows();
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) {
      body(i, a.row_begin(i), a.row_end(i));
    }
    return;
  }
  const auto& cs = sched.chunks();
  const index_t nc = static_cast<index_t>(cs.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t ci = 0; ci < nc; ++ci) {
    const KernelSchedule::Chunk& c = cs[static_cast<std::size_t>(ci)];
    for (index_t i = c.row_begin; i < c.row_end; ++i) {
      const index_t b = std::max(a.row_begin(i), c.edge_begin);
      const index_t e = std::min(a.row_end(i), c.edge_end);
      body(i, b, e);
    }
  }
}

}  // namespace detail

}  // namespace agnn
