// The simulated-cluster SPMD runtime.
//
// `SpmdRuntime::run(p, body)` executes `body(Communicator&)` on p ranks,
// each a thread, sharing nothing except through the Communicator — the same
// discipline as an MPI program. The Communicator provides the collectives
// the paper's distribution scheme needs (barrier, broadcast, reduce,
// allreduce, allgatherv, one-sided windows) plus `split` for the row/column
// sub-communicators of the 2D process grid.
//
// Volume accounting convention (per rank, in bytes; w = payload size,
// g = group size), matching the BSP accounting of the paper's Section 7 —
// bandwidth-optimal algorithms, tree-depth supersteps:
//
//   broadcast    sent w,          ceil(log2 g) supersteps
//   reduce       sent w,          ceil(log2 g) supersteps
//   allreduce    sent 2w,         2 ceil(log2 g) supersteps
//   allgatherv   sent (total-own),ceil(log2 g) supersteps   (ring volume)
//   window get   owner sent w,    1 superstep per exchange phase
//
// Data movement itself is implemented in whatever way is simplest (shared
// staging pointers + barriers); only the *accounting* models the network.
//
// Failure semantics (see comm/fault_injection.hpp and DESIGN.md §10): every
// collective entry is a fault-injection point, and every barrier is checked —
// a declared failure (injected abort, tripped timeout, or a rank dying with
// CommError) surfaces as a structured CommError on EVERY rank instead of a
// deadlock. `Communicator::recover()` is the all-ranks rendezvous that
// clears the failure so a checkpoint-restore loop can retry.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault_injection.hpp"
#include "comm/volume_stats.hpp"
#include "obs/obs_scope.hpp"
#include "tensor/common.hpp"
#include "tensor/env.hpp"

namespace agnn::comm {

namespace detail {

inline std::uint64_t ceil_log2(std::uint64_t x) {
  std::uint64_t r = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++r;
  }
  return r;
}

// Shared state of one communicator group. Ranks are 0..size-1 within the
// group; `global` maps to the runtime-wide rank ids used for stats.
struct GroupContext {
  explicit GroupContext(int size_, std::vector<int> global_,
                        std::vector<VolumeStats>* stats_,
                        FaultState* faults_ = nullptr)
      : size(size_),
        global(std::move(global_)),
        stats(stats_),
        faults(faults_),
        slots(static_cast<std::size_t>(size_), nullptr),
        sizes(static_cast<std::size_t>(size_), 0),
        split_color(static_cast<std::size_t>(size_), 0),
        split_key(static_cast<std::size_t>(size_), 0),
        subgroup(static_cast<std::size_t>(size_)),
        pending(static_cast<std::size_t>(size_), 0) {}

  int size;
  std::vector<int> global;            // group rank -> global rank
  std::vector<VolumeStats>* stats;    // indexed by global rank
  FaultState* faults;                 // runtime-wide; shared by all groups
  std::vector<const void*> slots;     // per-rank staging pointer
  std::vector<std::size_t> sizes;     // per-rank staging payload size
  // Collective-owned accumulator, written by rank 0 between barriers. Owned
  // by the context (not a raw new/delete pair inside the collective) so an
  // assertion throw mid-collective cannot leak it, and reused across calls
  // so steady-state allreduces allocate nothing after warm-up.
  std::vector<unsigned char> scratch;
  std::vector<int> split_color;
  std::vector<int> split_key;
  std::vector<std::shared_ptr<GroupContext>> subgroup;  // per-rank result of split
  std::vector<int> subrank;           // per-rank rank within its subgroup
  // Per-rank "async collective in flight" flag. Each rank reads and writes
  // ONLY its own entry (no synchronization needed); it guards against
  // starting a second collective on a group whose staging slots are still
  // pinned by an unwaited ibroadcast/iallreduce.
  std::vector<char> pending;

  // Checked barrier replacing std::barrier: identical rendezvous in the
  // healthy case, plus failure propagation and an optional deadline. The
  // outcome is uniform per generation — once the last member arrives and
  // the generation advances, every member returns success (the wake loop
  // checks the generation *before* the failure flag); if any member throws
  // at entry or while waiting, the generation never advances and every
  // other member unwinds too (via the failure flag or the deadline). The
  // recovery-epoch tag lazily resets abandoned arrival counts after
  // FaultState::recover(), when no thread can be inside a wait.
  void barrier_wait(int global_rank, const char* where) {
    std::unique_lock<std::mutex> lk(bar_mu);
    if (faults != nullptr) {
      const std::uint64_t re = faults->recovery_epoch();
      if (bar_epoch != re) {
        bar_epoch = re;
        bar_count = 0;
      }
      faults->check(where);
    }
    const std::uint64_t gen = bar_gen;
    if (++bar_count == size) {
      bar_count = 0;
      ++bar_gen;
      lk.unlock();
      bar_cv.notify_all();
      return;
    }
    const bool finite = faults != nullptr && faults->has_timeout();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + (finite ? faults->timeout()
                                          : std::chrono::nanoseconds(0));
    auto charge_wait = [&] {
      const auto waited = std::chrono::steady_clock::now() - start;
      (*stats)[static_cast<std::size_t>(global_rank)].wait_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                  .count()),
          std::memory_order_relaxed);
    };
    while (bar_gen == gen) {
      // Completion is cv-notified; the short poll bounds how long a waiter
      // can miss a failure declared without a notification reaching it.
      bar_cv.wait_for(lk, std::chrono::milliseconds(1));
      if (bar_gen != gen) break;  // completed: uniform success
      if (faults == nullptr) continue;
      if (faults->failure_active()) {
        charge_wait();
        faults->check(where);  // throws
      }
      if (finite && std::chrono::steady_clock::now() >= deadline) {
        charge_wait();
        lk.unlock();
        faults->declare(
            FaultKind::kCollectiveTimeout, global_rank,
            (*stats)[static_cast<std::size_t>(global_rank)].supersteps.load(
                std::memory_order_relaxed),
            where);
        faults->check(where);  // throws
      }
    }
    charge_wait();
  }

 private:
  std::mutex bar_mu;
  std::condition_variable bar_cv;
  int bar_count = 0;
  std::uint64_t bar_gen = 0;    // completed-generation counter
  std::uint64_t bar_epoch = 0;  // FaultState recovery epoch this state is for
};

}  // namespace detail

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::GroupContext> ctx, int rank)
      : ctx_(std::move(ctx)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return ctx_->size; }
  int global_rank() const { return ctx_->global[static_cast<std::size_t>(rank_)]; }

  VolumeStats& stats() {
    return (*ctx_->stats)[static_cast<std::size_t>(global_rank())];
  }

  void barrier() {
    fault_point("barrier");
    ctx_->barrier_wait(global_rank(), "barrier");
  }

  // Recovery rendezvous after a caught CommError: collective over ALL ranks
  // of the runtime (whatever group this communicator is). Clears the active
  // failure and re-arms every group's barriers; throws CommError if the
  // cluster cannot recover (a rank died, or the rendezvous timed out).
  void recover() {
    AGNN_ASSERT(ctx_->faults != nullptr, "recover: no fault state installed");
    ctx_->faults->recover(global_rank());
  }

  // ---- broadcast -------------------------------------------------------
  template <typename T>
  void broadcast(std::span<T> buf, int root) {
    AGNN_COLLECTIVE_SCOPE("broadcast", buf.size_bytes());
    fault_point("broadcast");
    assert_no_pending("broadcast");
    AGNN_ASSERT(root >= 0 && root < size(), "broadcast: bad root");
    if (size() == 1) return;
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    if (rank_ == root) ctx_->slots[static_cast<std::size_t>(root)] = buf.data();
    barrier();
    // A receiver larger than the root would read past the root's staging
    // buffer; every rank checks itself against the root's staged size.
    AGNN_ASSERT(ctx_->sizes[static_cast<std::size_t>(root)] == buf.size(),
                "broadcast: buffer size must match the root's");
    if (rank_ != root && !buf.empty()) {
      const auto* src =
          static_cast<const T*>(ctx_->slots[static_cast<std::size_t>(root)]);
      std::memcpy(buf.data(), src, buf.size_bytes());
    }
    barrier();
    charge_and_mark(buf.size_bytes(), 1,
                    detail::ceil_log2(static_cast<std::uint64_t>(size())));
  }

  // ---- reduce (sum) to root ---------------------------------------------
  template <typename T>
  void reduce_sum(std::span<T> buf, int root) {
    AGNN_COLLECTIVE_SCOPE("reduce_sum", buf.size_bytes());
    fault_point("reduce_sum");
    assert_no_pending("reduce_sum");
    AGNN_ASSERT(root >= 0 && root < size(), "reduce: bad root");
    if (size() == 1) return;
    ctx_->slots[static_cast<std::size_t>(rank_)] = buf.data();
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    barrier();
    // Size agreement is asserted on *every* rank (against the root's staged
    // size) so the offending rank fails loudly, and re-checked by the root
    // before it dereferences any peer's staging pointer.
    AGNN_ASSERT(ctx_->sizes[static_cast<std::size_t>(root)] == buf.size(),
                "reduce: buffer size must match the root's");
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        AGNN_ASSERT(ctx_->sizes[static_cast<std::size_t>(r)] == buf.size(),
                    "reduce: buffer sizes must match");
        const auto* src = static_cast<const T*>(ctx_->slots[static_cast<std::size_t>(r)]);
        for (std::size_t i = 0; i < buf.size(); ++i) buf[i] += src[i];
      }
    }
    barrier();
    charge_and_mark(buf.size_bytes(), 1,
                    detail::ceil_log2(static_cast<std::uint64_t>(size())));
  }

  // ---- allreduce (sum) ----------------------------------------------------
  template <typename T>
  void allreduce_sum(std::span<T> buf) {
    AGNN_COLLECTIVE_SCOPE("allreduce_sum", 2 * buf.size_bytes());
    fault_point("allreduce_sum");
    assert_no_pending("allreduce_sum");
    if (size() == 1) return;
    ctx_->slots[static_cast<std::size_t>(rank_)] = buf.data();
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    barrier();
    AGNN_ASSERT(ctx_->sizes[0] == buf.size(), "allreduce: buffer sizes must match");
    if (rank_ == 0) {
      ctx_->scratch.resize(buf.size_bytes());
      auto* acc = reinterpret_cast<T*>(ctx_->scratch.data());
      std::fill_n(acc, buf.size(), T(0));
      for (int r = 0; r < size(); ++r) {
        AGNN_ASSERT(ctx_->sizes[static_cast<std::size_t>(r)] == buf.size(),
                    "allreduce: buffer sizes must match");
        const auto* src = static_cast<const T*>(ctx_->slots[static_cast<std::size_t>(r)]);
        for (std::size_t i = 0; i < buf.size(); ++i) acc[i] += src[i];
      }
    }
    barrier();
    if (!buf.empty()) {
      std::memcpy(buf.data(), ctx_->scratch.data(), buf.size_bytes());
    }
    barrier();
    charge_and_mark(2 * buf.size_bytes(), 2,
                    2 * detail::ceil_log2(static_cast<std::uint64_t>(size())));
  }

  // ---- allreduce (max) ------------------------------------------------------
  template <typename T>
  void allreduce_max(std::span<T> buf) {
    AGNN_COLLECTIVE_SCOPE("allreduce_max", 2 * buf.size_bytes());
    fault_point("allreduce_max");
    assert_no_pending("allreduce_max");
    if (size() == 1) return;
    ctx_->slots[static_cast<std::size_t>(rank_)] = buf.data();
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    barrier();
    AGNN_ASSERT(ctx_->sizes[0] == buf.size(), "allreduce_max: buffer sizes must match");
    if (rank_ == 0) {
      ctx_->scratch.resize(buf.size_bytes());
      auto* acc = reinterpret_cast<T*>(ctx_->scratch.data());
      std::copy_n(static_cast<const T*>(ctx_->slots[0]), buf.size(), acc);
      for (int r = 1; r < size(); ++r) {
        AGNN_ASSERT(ctx_->sizes[static_cast<std::size_t>(r)] == buf.size(),
                    "allreduce_max: buffer sizes must match");
        const auto* src = static_cast<const T*>(ctx_->slots[static_cast<std::size_t>(r)]);
        for (std::size_t i = 0; i < buf.size(); ++i) {
          if (src[i] > acc[i]) acc[i] = src[i];
        }
      }
    }
    barrier();
    if (!buf.empty()) {
      std::memcpy(buf.data(), ctx_->scratch.data(), buf.size_bytes());
    }
    barrier();
    charge_and_mark(2 * buf.size_bytes(), 2,
                    2 * detail::ceil_log2(static_cast<std::uint64_t>(size())));
  }

  // ---- allgatherv ---------------------------------------------------------
  // Gathers variable-size contributions; returns the concatenation in group
  // rank order. `offsets_out`, if non-null, receives each rank's offset.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> in,
                            std::vector<std::size_t>* offsets_out = nullptr) {
    AGNN_COLLECTIVE_SCOPE("allgatherv", in.size_bytes());
    fault_point("allgatherv");
    assert_no_pending("allgatherv");
    ctx_->slots[static_cast<std::size_t>(rank_)] = in.data();
    ctx_->sizes[static_cast<std::size_t>(rank_)] = in.size();
    barrier();
    std::size_t total = 0;
    std::vector<std::size_t> offsets(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      offsets[static_cast<std::size_t>(r)] = total;
      total += ctx_->sizes[static_cast<std::size_t>(r)];
    }
    std::vector<T> out(total);
    for (int r = 0; r < size(); ++r) {
      const auto* src = static_cast<const T*>(ctx_->slots[static_cast<std::size_t>(r)]);
      const std::size_t cnt = ctx_->sizes[static_cast<std::size_t>(r)];
      if (cnt > 0) {
        std::memcpy(out.data() + offsets[static_cast<std::size_t>(r)], src,
                    cnt * sizeof(T));
      }
    }
    barrier();
    if (size() > 1) {
      charge_and_mark((total - in.size()) * sizeof(T),
                      static_cast<std::uint64_t>(size() - 1),
                      detail::ceil_log2(static_cast<std::uint64_t>(size())));
    }
    if (offsets_out) *offsets_out = std::move(offsets);
    return out;
  }

  // ---- one-sided window ---------------------------------------------------
  // Collectively expose a local buffer; then any rank may `get` slices of a
  // peer's buffer. The *owner* is charged the transferred bytes (it is the
  // sender). Must be closed collectively.
  template <typename T>
  class Window {
   public:
    Window(Communicator& c, std::span<const T> local) : c_(c) {
      AGNN_COLLECTIVE_SCOPE("window_expose", 0);
      c_.fault_point("window_expose");
      c_.assert_no_pending("window_expose");
      c_.ctx_->slots[static_cast<std::size_t>(c_.rank_)] = local.data();
      c_.ctx_->sizes[static_cast<std::size_t>(c_.rank_)] = local.size();
      c_.barrier();
    }
    // Unwinding past an open window must neither throw nor block: with a
    // failure active the close-barrier throws CommError, which is swallowed
    // here — this rank rethrows at its next collective anyway. Explicit
    // close() calls still propagate the error.
    ~Window() {
      try {
        close();
      } catch (...) {
      }
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;

    // Copy `out.size()` elements from `src_rank`'s exposed buffer starting
    // at `src_offset` (in elements).
    void get(std::span<T> out, int src_rank, std::size_t src_offset) {
      AGNN_COLLECTIVE_SCOPE("window_get",
                            src_rank == c_.rank_ ? 0 : out.size_bytes());
      AGNN_ASSERT(src_rank >= 0 && src_rank < c_.size(), "window get: bad rank");
      const std::size_t avail = c_.ctx_->sizes[static_cast<std::size_t>(src_rank)];
      AGNN_ASSERT(src_offset + out.size() <= avail, "window get: out of range");
      const auto* src =
          static_cast<const T*>(c_.ctx_->slots[static_cast<std::size_t>(src_rank)]);
      std::memcpy(out.data(), src + src_offset, out.size_bytes());
      if (src_rank != c_.rank_) {
        (*c_.ctx_->stats)[static_cast<std::size_t>(
                              c_.ctx_->global[static_cast<std::size_t>(src_rank)])]
            .charge(out.size_bytes(), 1, 0);
      }
    }

    void close() {
      if (closed_) return;
      closed_ = true;
      AGNN_COLLECTIVE_SCOPE("window_close", 0);
      c_.barrier();
      c_.charge_and_mark(0, 0, 1);  // the exchange phase is one superstep
    }

   private:
    Communicator& c_;
    bool closed_ = false;
  };

  template <typename T>
  Window<T> expose(std::span<const T> local) {
    return Window<T>(*this, local);
  }

  // ---- async collectives --------------------------------------------------
  // ibroadcast / iallreduce_sum split the blocking collective at its first
  // rendezvous: `start` stages this rank's buffer and passes the entry
  // barrier, then returns a handle; `wait()` performs the data movement, the
  // remaining barriers, and the volume/superstep charge of the blocking
  // form. The result and the accounting are therefore identical to the
  // blocking call by construction — the only difference is that the caller
  // may compute between start and wait, which the trace renders as kernel
  // spans nested inside the still-open collective span (the overlap
  // evidence the pipelined SUMMA engines rely on).
  //
  // Contract: the buffer is pinned from start until wait() returns — peers
  // read it through the staging slot during wait — and at most one async
  // collective per (group, rank) may be in flight (staging slots are a
  // single set per group; the `pending` flag asserts this).
  template <typename T>
  class Pending {
   public:
    Pending(Pending&& o) noexcept
        : c_(o.c_),
          op_(o.op_),
          buf_(o.buf_),
          root_(o.root_),
          done_(o.done_),
          span_name_(o.span_name_),
          start_ns_(o.start_ns_) {
      o.done_ = true;
      o.span_name_ = nullptr;
    }
    Pending& operator=(Pending&& o) noexcept {
      if (this != &o) {
        try {
          wait();
        } catch (...) {
        }
        c_ = o.c_;
        op_ = o.op_;
        buf_ = o.buf_;
        root_ = o.root_;
        done_ = o.done_;
        span_name_ = o.span_name_;
        start_ns_ = o.start_ns_;
        o.done_ = true;
        o.span_name_ = nullptr;
      }
      return *this;
    }
    Pending(const Pending&) = delete;
    Pending& operator=(const Pending&) = delete;

    // Like ~Window: unwinding past an unwaited handle must neither throw nor
    // deadlock — with a failure active the completion barrier throws
    // CommError, swallowed here; this rank rethrows at its next collective.
    ~Pending() {
      try {
        wait();
      } catch (...) {
      }
    }

    // Complete the collective: exactly the tail of the blocking form after
    // its first barrier. Idempotent.
    void wait() {
      if (done_) return;
      done_ = true;
      Communicator& c = *c_;
      c.ctx_->pending[static_cast<std::size_t>(c.rank_)] = 0;
      if (op_ == Op::kBroadcast) {
        AGNN_ASSERT(
            c.ctx_->sizes[static_cast<std::size_t>(root_)] == buf_.size(),
            "ibroadcast: buffer size must match the root's");
        if (c.rank_ != root_ && !buf_.empty()) {
          const auto* src = static_cast<const T*>(
              c.ctx_->slots[static_cast<std::size_t>(root_)]);
          std::memcpy(buf_.data(), src, buf_.size_bytes());
        }
        c.barrier();
        c.charge_and_mark(
            buf_.size_bytes(), 1,
            detail::ceil_log2(static_cast<std::uint64_t>(c.size())));
      } else {
        AGNN_ASSERT(c.ctx_->sizes[0] == buf_.size(),
                    "iallreduce_sum: buffer sizes must match");
        if (c.rank_ == 0) {
          c.ctx_->scratch.resize(buf_.size_bytes());
          auto* acc = reinterpret_cast<T*>(c.ctx_->scratch.data());
          std::fill_n(acc, buf_.size(), T(0));
          for (int r = 0; r < c.size(); ++r) {
            AGNN_ASSERT(
                c.ctx_->sizes[static_cast<std::size_t>(r)] == buf_.size(),
                "iallreduce_sum: buffer sizes must match");
            const auto* src = static_cast<const T*>(
                c.ctx_->slots[static_cast<std::size_t>(r)]);
            for (std::size_t i = 0; i < buf_.size(); ++i) acc[i] += src[i];
          }
        }
        c.barrier();
        if (!buf_.empty()) {
          std::memcpy(buf_.data(), c.ctx_->scratch.data(), buf_.size_bytes());
        }
        c.barrier();
        c.charge_and_mark(
            2 * buf_.size_bytes(), 2,
            2 * detail::ceil_log2(static_cast<std::uint64_t>(c.size())));
      }
      close_span();
    }

   private:
    friend class Communicator;
    enum class Op : std::uint8_t { kBroadcast, kAllreduceSum };

    // Trivial (single-rank) completed handle.
    Pending(Communicator& c, Op op) : c_(&c), op_(op), done_(true) {}

    Pending(Communicator& c, Op op, std::span<T> buf, int root,
            const char* span_name, std::uint64_t start_ns)
        : c_(&c),
          op_(op),
          buf_(buf),
          root_(root),
          span_name_(span_name),
          start_ns_(start_ns) {}

    // Closes the trace span and records the start→wait latency into the
    // async collective's histogram. Unlike the blocking collectives this is
    // an off-hot-path registry observe — the span already pays a barrier.
    void close_span() {
      if (span_name_ != nullptr) {
        obs::Tracer::instance().end(span_name_, obs::SpanCategory::kCollective);
        obs::MetricsRegistry::global().observe(
            std::string("comm.") + span_name_ + ".ns",
            obs::detail::now_ns() - start_ns_);
        span_name_ = nullptr;
      }
    }

    Communicator* c_;
    Op op_;
    std::span<T> buf_{};
    int root_ = 0;
    bool done_ = false;
    const char* span_name_ = nullptr;  // non-null iff the Begin was recorded
    std::uint64_t start_ns_ = 0;
  };

  // Start an asynchronous broadcast. Same staging, fault point, and (at
  // wait) accounting as `broadcast`.
  template <typename T>
  Pending<T> ibroadcast(std::span<T> buf, int root) {
    fault_point("ibroadcast");
    AGNN_ASSERT(root >= 0 && root < size(), "ibroadcast: bad root");
    assert_no_pending("ibroadcast");
    if (size() == 1) return Pending<T>(*this, Pending<T>::Op::kBroadcast);
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    if (rank_ == root) ctx_->slots[static_cast<std::size_t>(root)] = buf.data();
    barrier();
    ctx_->pending[static_cast<std::size_t>(rank_)] = 1;
    const char* span = nullptr;
    std::uint64_t start_ns = 0;
    if (obs::Tracer::enabled() &&
        obs::Tracer::instance().begin("ibroadcast",
                                      obs::SpanCategory::kCollective,
                                      buf.size_bytes())) {
      span = "ibroadcast";
      obs::MetricsRegistry::global().observe("comm.ibroadcast.bytes",
                                             buf.size_bytes());
      start_ns = obs::detail::now_ns();
    }
    return Pending<T>(*this, Pending<T>::Op::kBroadcast, buf, root, span,
                      start_ns);
  }

  // Start an asynchronous allreduce(sum). Same staging, fault point, and
  // (at wait) accounting as `allreduce_sum`.
  template <typename T>
  Pending<T> iallreduce_sum(std::span<T> buf) {
    fault_point("iallreduce_sum");
    assert_no_pending("iallreduce_sum");
    if (size() == 1) return Pending<T>(*this, Pending<T>::Op::kAllreduceSum);
    ctx_->slots[static_cast<std::size_t>(rank_)] = buf.data();
    ctx_->sizes[static_cast<std::size_t>(rank_)] = buf.size();
    barrier();
    ctx_->pending[static_cast<std::size_t>(rank_)] = 1;
    const char* span = nullptr;
    std::uint64_t start_ns = 0;
    if (obs::Tracer::enabled() &&
        obs::Tracer::instance().begin("iallreduce_sum",
                                      obs::SpanCategory::kCollective,
                                      2 * buf.size_bytes())) {
      span = "iallreduce_sum";
      obs::MetricsRegistry::global().observe("comm.iallreduce_sum.bytes",
                                             2 * buf.size_bytes());
      start_ns = obs::detail::now_ns();
    }
    return Pending<T>(*this, Pending<T>::Op::kAllreduceSum, buf, 0, span,
                      start_ns);
  }

  // ---- split ---------------------------------------------------------------
  // Partition the group by color; within each color, ranks are ordered by
  // (key, old rank). Collective over the whole group.
  Communicator split(int color, int key);

 private:
  template <typename T>
  friend class Window;
  template <typename T>
  friend class Pending;

  // Starting any staging collective while an async one is in flight on the
  // same group would clobber the staging slots the pending op still reads;
  // each rank checks (and owns) only its own flag.
  void assert_no_pending(const char* what) {
    (void)what;
    AGNN_ASSERT(ctx_->pending[static_cast<std::size_t>(rank_)] == 0,
                "async collective still in flight on this group: wait() the "
                "handle before the next collective");
  }

  // The single fault-injection hook: every collective entry consults the
  // runtime's FaultState, which fires any due plan events for this rank
  // (straggler sleep, abort, stall) and surfaces an active failure as
  // CommError. Costs two atomic loads when no plan is installed.
  void fault_point(const char* where) {
    FaultState* st = ctx_->faults;
    if (st == nullptr) return;
    st->on_collective(where, global_rank(),
                      stats().supersteps.load(std::memory_order_relaxed));
  }

  // Charge the rank and emit a superstep instant carrying the charged
  // bytes, so a trace ties each boundary to its exact billed volume.
  void charge_and_mark(std::uint64_t bytes, std::uint64_t msgs,
                       std::uint64_t steps) {
    VolumeStats& s = stats();
    s.charge(bytes, msgs, steps);
    obs::superstep_mark(bytes,
                        s.supersteps.load(std::memory_order_relaxed));
  }

  std::shared_ptr<detail::GroupContext> ctx_;
  int rank_;
};

inline Communicator Communicator::split(int color, int key) {
  ctx_->split_color[static_cast<std::size_t>(rank_)] = color;
  ctx_->split_key[static_cast<std::size_t>(rank_)] = key;
  barrier();
  if (rank_ == 0) {
    ctx_->subrank.assign(static_cast<std::size_t>(size()), 0);
    std::map<int, std::vector<int>> groups;  // color -> group ranks
    for (int r = 0; r < size(); ++r) {
      groups[ctx_->split_color[static_cast<std::size_t>(r)]].push_back(r);
    }
    for (auto& [col, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return ctx_->split_key[static_cast<std::size_t>(a)] <
               ctx_->split_key[static_cast<std::size_t>(b)];
      });
      std::vector<int> global;
      global.reserve(members.size());
      for (const int m : members) {
        global.push_back(ctx_->global[static_cast<std::size_t>(m)]);
      }
      auto sub = std::make_shared<detail::GroupContext>(
          static_cast<int>(members.size()), std::move(global), ctx_->stats,
          ctx_->faults);
      for (std::size_t i = 0; i < members.size(); ++i) {
        ctx_->subgroup[static_cast<std::size_t>(members[i])] = sub;
        ctx_->subrank[static_cast<std::size_t>(members[i])] = static_cast<int>(i);
      }
    }
  }
  barrier();
  Communicator sub(ctx_->subgroup[static_cast<std::size_t>(rank_)],
                   ctx_->subrank[static_cast<std::size_t>(rank_)]);
  barrier();  // everyone has picked up its handle before slots are reused
  return sub;
}

// Options for a fault-aware run. The default-constructed value means "no
// faults, no timeout" — byte-identical behavior to the plain overload,
// except that the plain overload additionally consults AGNN_FAULTS /
// AGNN_COMM_TIMEOUT_MS (so any existing program is chaos-able from the
// environment), while an explicit RunOptions is authoritative.
struct RunOptions {
  FaultPlan faults;
  // Barrier deadline per collective. <= 0 picks the default: 2s when a
  // fault plan is installed (so injected deadlocks fail fast), otherwise
  // no deadline (healthy runs never spuriously trip under load).
  std::chrono::milliseconds timeout{0};
};

// AGNN_COMM_TIMEOUT_MS: the collective deadline in milliseconds, parsed by
// positive_int_from_env. Unset or empty means 0, which lets the runtime pick
// its default.
inline std::chrono::milliseconds timeout_from_env() {
  return std::chrono::milliseconds(positive_int_from_env("AGNN_COMM_TIMEOUT_MS"));
}

// Executes an SPMD body on `nranks` simulated ranks and returns the final
// per-rank volume/compute snapshots.
class SpmdRuntime {
 public:
  using Body = std::function<void(Communicator&)>;

  // Reads AGNN_FAULTS and AGNN_COMM_TIMEOUT_MS before any rank starts.
  static std::vector<VolumeSnapshot> run(int nranks, const Body& body) {
    RunOptions opts;
    opts.faults = FaultPlan::from_env();
    opts.timeout = timeout_from_env();
    return run(nranks, opts, body);
  }

  static std::vector<VolumeSnapshot> run(int nranks, const RunOptions& opts,
                                         const Body& body) {
    AGNN_ASSERT(nranks >= 1, "need at least one rank");
    auto stats = std::make_unique<std::vector<VolumeStats>>(
        static_cast<std::size_t>(nranks));
    auto faults = std::make_unique<FaultState>(nranks);
    const auto timeout =
        opts.timeout.count() > 0
            ? std::chrono::nanoseconds(opts.timeout)
            : (opts.faults.empty() ? std::chrono::nanoseconds(0)
                                   : std::chrono::nanoseconds(
                                         std::chrono::seconds(2)));
    faults->install(opts.faults, timeout);
    std::vector<int> global(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) global[static_cast<std::size_t>(r)] = r;
    auto ctx = std::make_shared<detail::GroupContext>(nranks, std::move(global),
                                                      stats.get(), faults.get());

    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks - 1));
    auto rank_main = [&](int r) {
      try {
        // Tracing: this thread's events render on the rank's track.
        obs::RankBinding trace_rank(r);
        Communicator c(ctx, r);
        body(c);
      } catch (const CommError&) {
        // A structured comm failure is survivable at the runtime level: the
        // rank is marked dead (so peers blocked in barriers or in recover()
        // unwind instead of waiting for it) and the error is rethrown to
        // the caller after the join.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        faults->mark_rank_dead(r);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Anything else is a programming error (assertion failure); there
        // is no recovery story for it, so abort loudly.
        std::fprintf(stderr, "fatal: simulated rank %d threw an exception: %s\n",
                     r, e.what());
        std::terminate();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        std::fprintf(stderr, "fatal: simulated rank %d threw an exception\n", r);
        std::terminate();
      }
    };
    for (int r = 1; r < nranks; ++r) threads.emplace_back(rank_main, r);
    rank_main(0);
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::vector<VolumeSnapshot> out;
    out.reserve(static_cast<std::size_t>(nranks));
    // All rank threads are joined: the counters are quiescent, so the
    // cross-field-consistent snapshot is both available and required here.
    for (auto& s : *stats) out.push_back(snapshot_quiesced(s));
    return out;
  }
};

// Collectively zero the volume/compute counters of every rank. Used to
// exclude one-time setup (data distribution, partitioning metadata) from
// per-layer measurements — the paper's accounting likewise assumes the data
// is already distributed.
inline void reset_all_stats(Communicator& c) {
  c.barrier();
  c.stats().reset();
  c.barrier();
}

// Aggregate helpers over per-rank snapshots.
inline std::uint64_t max_bytes_sent(const std::vector<VolumeSnapshot>& s) {
  std::uint64_t m = 0;
  for (const auto& x : s) m = std::max(m, x.bytes_sent);
  return m;
}
inline std::uint64_t total_bytes_sent(const std::vector<VolumeSnapshot>& s) {
  std::uint64_t t = 0;
  for (const auto& x : s) t += x.bytes_sent;
  return t;
}
inline double max_compute_seconds(const std::vector<VolumeSnapshot>& s) {
  double m = 0;
  for (const auto& x : s) m = std::max(m, x.compute_seconds);
  return m;
}
inline std::uint64_t max_supersteps(const std::vector<VolumeSnapshot>& s) {
  std::uint64_t m = 0;
  for (const auto& x : s) m = std::max(m, x.supersteps);
  return m;
}

}  // namespace agnn::comm
