// Per-rank span tracing for the simulated cluster.
//
// The paper's claims are about *where time goes* — compute vs. communication
// per BSP superstep — so the reproduction records a timeline, not just
// end-of-run aggregates. Design constraints, in order:
//
//  1. Always compiled, near-zero overhead when disabled. The AGNN_TRACE_SCOPE
//     macro expands to an RAII object whose constructor is a single relaxed
//     atomic load + branch when tracing is off (bench_kernels asserts the
//     per-span cost). No #ifdef builds: the traced binary IS the measured
//     binary.
//  2. Lock-free recording on the hot path. Each recording thread owns a
//     fixed-capacity buffer (allocated once, on that thread's first event);
//     recording is a bounds check + a store + a release publish. The only
//     lock is taken when a *new thread* registers its buffer.
//  3. Bounded memory with balanced spans. When a buffer fills, new Begins are
//     refused (drop-newest, counted), but the End of every *accepted* Begin
//     is guaranteed a slot — the buffer reserves headroom for all open spans,
//     so exported traces always have balanced B/E events per thread.
//
// Rank mapping: `SpmdRuntime::run` binds each rank thread via `RankBinding`,
// and every event records the rank current at record time. In the exported
// Chrome/Perfetto `trace_event` JSON each simulated rank renders as a
// "thread" (tid == rank) of one "process" (the simulated cluster); code that
// runs outside any rank (the driver) lands on a separate "driver" track.
// Superstep boundaries are instant events emitted by the Communicator when a
// collective charges its superstep count.
//
// Open `trace.json` in https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/common.hpp"
#include "tensor/env.hpp"

namespace agnn::obs {

// Span taxonomy (see DESIGN.md §9). The category becomes the `cat` field in
// the exported JSON, so Perfetto can filter e.g. only collectives.
enum class SpanCategory : std::uint8_t {
  kKernel,      // one src/tensor/ kernel entry point
  kCollective,  // one Communicator collective / one-sided exchange
  kPhase,       // engine-level phase: layer forward/backward, exchange, ...
  kEpoch,       // Trainer epoch / train_step
  kSuperstep,   // instant marker: a rank's superstep counter advanced
  kFault,       // instant marker: injected fault / failure declaration
};

inline const char* to_string(SpanCategory c) {
  switch (c) {
    case SpanCategory::kKernel: return "kernel";
    case SpanCategory::kCollective: return "collective";
    case SpanCategory::kPhase: return "phase";
    case SpanCategory::kEpoch: return "epoch";
    case SpanCategory::kSuperstep: return "superstep";
    case SpanCategory::kFault: return "fault";
  }
  return "?";
}

// One recorded event. POD, fixed size; `name` must be a string literal (or
// otherwise outlive the tracer) — recording never copies or allocates.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;     // steady-clock ns since tracer epoch
  std::uint64_t bytes = 0;     // payload bytes (collectives; 0 otherwise)
  std::uint64_t superstep = 0; // rank's superstep counter (instants; 0 else)
  std::int32_t rank = -1;      // simulated rank at record time; -1 = driver
  SpanCategory category = SpanCategory::kKernel;
  char phase = 'B';            // 'B' begin, 'E' end, 'i' instant
};

namespace detail {

// Rank bound to the current thread; -1 outside any simulated rank.
inline thread_local std::int32_t t_rank = -1;

inline std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// Single-producer fixed-capacity event buffer. The owning thread writes;
// any thread may read the committed prefix (count_ is the release-published
// high-water mark, so concurrent export of a *quiescent* producer is safe,
// and export during recording sees a consistent prefix).
class ThreadBuffer {
 public:
  explicit ThreadBuffer(std::size_t capacity)
      : storage_(std::make_unique<TraceEvent[]>(capacity)), cap_(capacity) {}

  // Invariant: count + open_ <= cap_, so every accepted Begin's End fits.
  bool try_begin(const TraceEvent& ev) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n + open_ + 2 > cap_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    storage_[n] = ev;
    ++open_;
    count_.store(n + 1, std::memory_order_release);
    return true;
  }

  // Only called for spans whose Begin was accepted; a slot is guaranteed.
  void end(const TraceEvent& ev) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    storage_[n] = ev;
    --open_;
    count_.store(n + 1, std::memory_order_release);
  }

  bool try_instant(const TraceEvent& ev) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n + open_ + 1 > cap_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    storage_[n] = ev;
    count_.store(n + 1, std::memory_order_release);
    return true;
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void collect_into(std::vector<TraceEvent>& out) const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) out.push_back(storage_[i]);
  }

  void clear() {
    // Writer-side only (or quiesced): resets the committed prefix.
    open_ = 0;
    count_.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<TraceEvent[]> storage_;
  std::size_t cap_;
  std::size_t open_ = 0;  // accepted Begins without their End; writer-only
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace detail

inline constexpr std::size_t kDefaultTraceBufferEvents = std::size_t{1} << 16;

// Events per recording thread's buffer: AGNN_TRACE_BUFFER, parsed by
// positive_int_from_env, so "64k" throws instead of reading as 64. Unset or
// empty keeps kDefaultTraceBufferEvents (65,536).
inline std::size_t trace_buffer_capacity_from_env() {
  const int events = positive_int_from_env("AGNN_TRACE_BUFFER");
  return events > 0 ? static_cast<std::size_t>(events) : kDefaultTraceBufferEvents;
}

// Process-wide tracer. Enabled state is a relaxed atomic so the disabled
// fast path is one load + branch; everything else only runs when enabled.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  static void set_enabled(bool on) {
    enabled_flag().store(on, std::memory_order_relaxed);
  }

  // True when the AGNN_TRACE environment variable is set to anything but
  // "" or "0".
  static bool env_wants_trace() {
    const char* v = std::getenv("AGNN_TRACE");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
  }

  // Capacity (events per recording thread) for buffers created *after* this
  // call. Overridable via AGNN_TRACE_BUFFER (events).
  void set_buffer_capacity(std::size_t events) {
    buffer_capacity_.store(events < 64 ? 64 : events,
                           std::memory_order_relaxed);
  }

  // --- recording (hot path; caller has checked enabled()) ---------------
  bool begin(const char* name, SpanCategory cat, std::uint64_t bytes) {
    return buffer().try_begin({name, detail::now_ns(), bytes, 0,
                               detail::t_rank, cat, 'B'});
  }

  void end(const char* name, SpanCategory cat) {
    buffer().end({name, detail::now_ns(), 0, 0, detail::t_rank, cat, 'E'});
  }

  void instant(const char* name, SpanCategory cat, std::uint64_t bytes,
               std::uint64_t superstep) {
    buffer().try_instant({name, detail::now_ns(), bytes, superstep,
                          detail::t_rank, cat, 'i'});
  }

  // --- export -----------------------------------------------------------
  // Snapshot of every registered buffer's committed prefix. Call when the
  // recording threads are quiescent (e.g. after SpmdRuntime::run returned)
  // for a complete trace; a concurrent call sees a consistent prefix.
  std::vector<TraceEvent> collect() const {
    std::vector<TraceEvent> out;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& b : buffers_) b->collect_into(out);
    return out;
  }

  std::uint64_t dropped_events() const {
    std::uint64_t d = 0;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& b : buffers_) d += b->dropped();
    return d;
  }

  // Surface the drop-newest policy: export the total and every per-thread
  // dropped-span count (nonzero buffers only, named by registration order)
  // into the registry, so a metrics dump shows *that* and *where* the ring
  // buffers saturated instead of the trace silently thinning. Watermark
  // semantics (set_max): safe to call repeatedly. Returns the total.
  std::uint64_t export_drop_metrics(
      MetricsRegistry& reg = MetricsRegistry::global()) const {
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      const std::uint64_t d = buffers_[i]->dropped();
      total += d;
      if (d != 0) {
        reg.counter("trace.dropped_spans.t" + std::to_string(i)).set_max(d);
      }
    }
    reg.counter("trace.dropped_spans").set_max(total);
    return total;
  }

  // Drop all recorded events (buffers stay registered and allocated). Only
  // safe when recording threads are quiescent.
  void clear() {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& b : buffers_) b->clear();
  }

  // Chrome trace_event JSON (the "JSON array format": a single array, each
  // element one event; ts/dur are microseconds). One pid for the cluster;
  // tid == simulated rank, driver code on its own track.
  void write_chrome_json(std::ostream& os) const {
    write_chrome_json(os, collect());
  }

  static void write_chrome_json(std::ostream& os,
                                const std::vector<TraceEvent>& events) {
    std::int32_t max_rank = -1;
    for (const auto& e : events) max_rank = std::max(max_rank, e.rank);
    const std::int32_t driver_tid = max_rank + 1;

    os << "[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"agnn simulated cluster\"}}";
    for (std::int32_t r = 0; r <= max_rank; ++r) {
      os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << r
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " << r
         << "\"}}";
    }
    os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << driver_tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"driver\"}}";

    char ts_buf[32];
    // Per-tid stack of open Begins: a span still open at export time (the
    // recording thread unwound without reaching its End, or export ran
    // mid-span) gets a synthesized End below so the JSON stays balanced.
    std::map<std::int32_t, std::vector<const TraceEvent*>> open;
    std::uint64_t last_ts_ns = 0;
    for (const auto& e : events) {
      const std::int32_t tid = e.rank < 0 ? driver_tid : e.rank;
      last_ts_ns = std::max(last_ts_ns, e.ts_ns);
      if (e.phase == 'B') {
        open[tid].push_back(&e);
      } else if (e.phase == 'E' && !open[tid].empty()) {
        open[tid].pop_back();
      }
      // ts is microseconds; keep ns resolution with three decimals.
      std::snprintf(ts_buf, sizeof(ts_buf), "%llu.%03u",
                    static_cast<unsigned long long>(e.ts_ns / 1000),
                    static_cast<unsigned>(e.ts_ns % 1000));
      os << ",\n{\"ph\":\"" << e.phase << "\",\"pid\":0,\"tid\":" << tid
         << ",\"ts\":" << ts_buf << ",\"name\":\"" << e.name
         << "\",\"cat\":\"" << to_string(e.category) << "\"";
      if (e.phase == 'i') {
        os << ",\"s\":\"t\"";  // thread-scoped instant
      }
      if (e.phase != 'E') {
        os << ",\"args\":{";
        bool first = true;
        if (e.bytes != 0) {
          os << "\"bytes\":" << e.bytes;
          first = false;
        }
        if (e.category == SpanCategory::kSuperstep) {
          if (!first) os << ",";
          os << "\"superstep\":" << e.superstep;
          first = false;
        }
        if (first) os << "\"rank\":" << e.rank;
        os << "}";
      }
      os << "}";
    }
    std::snprintf(ts_buf, sizeof(ts_buf), "%llu.%03u",
                  static_cast<unsigned long long>(last_ts_ns / 1000),
                  static_cast<unsigned>(last_ts_ns % 1000));
    for (const auto& [tid, stack] : open) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        os << ",\n{\"ph\":\"E\",\"pid\":0,\"tid\":" << tid
           << ",\"ts\":" << ts_buf << ",\"name\":\"" << (*it)->name
           << "\",\"cat\":\"" << to_string((*it)->category) << "\"}";
      }
    }
    os << "\n]\n";
  }

  // Convenience: write the full trace to `path`. Returns false on I/O error.
  bool write_chrome_json_file(const std::string& path) const;

 private:
  Tracer() { set_buffer_capacity(trace_buffer_capacity_from_env()); }

  static std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> on{false};
    return on;
  }

  detail::ThreadBuffer& buffer() {
    thread_local detail::ThreadBuffer* buf = nullptr;
    // A new thread's first event registers its buffer (the only lock on the
    // recording path, paid once per thread, before the hot loop).
    if (buf == nullptr) buf = register_thread_buffer();
    return *buf;
  }

  detail::ThreadBuffer* register_thread_buffer() {
    auto owned = std::make_unique<detail::ThreadBuffer>(
        buffer_capacity_.load(std::memory_order_relaxed));
    detail::ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers_.push_back(std::move(owned));
    return raw;
  }

  mutable std::mutex registry_mutex_;
  // Buffers are never destroyed (threads come and go across SpmdRuntime
  // runs; their events must survive the join for export). Bounded by
  // capacity * total distinct recording threads — the 64k default costs
  // ~3 MB per recording thread, so even a 64-rank sweep stays modest;
  // long traced runs raise it via AGNN_TRACE_BUFFER.
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
  std::atomic<std::size_t> buffer_capacity_{kDefaultTraceBufferEvents};
};

// RAII scoped span. When tracing is disabled the constructor is one relaxed
// load + branch and the destructor one predictable branch on a member bool —
// the disabled cost asserted by bench_kernels' TraceSpanDisabled.
class SpanScope {
 public:
  SpanScope(const char* name, SpanCategory cat, std::uint64_t bytes = 0) {
    if (!Tracer::enabled()) return;
    if (Tracer::instance().begin(name, cat, bytes)) {
      name_ = name;
      cat_ = cat;
    }
  }
  ~SpanScope() {
    if (name_ != nullptr) Tracer::instance().end(name_, cat_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;  // non-null iff the Begin was recorded
  SpanCategory cat_ = SpanCategory::kKernel;
};

// Binds the current thread to a simulated rank for the binding's lifetime;
// installed by SpmdRuntime::run around each rank body.
class RankBinding {
 public:
  explicit RankBinding(std::int32_t rank) : prev_(detail::t_rank) {
    detail::t_rank = rank;
  }
  ~RankBinding() { detail::t_rank = prev_; }
  RankBinding(const RankBinding&) = delete;
  RankBinding& operator=(const RankBinding&) = delete;

 private:
  std::int32_t prev_;
};

inline std::int32_t current_rank() { return detail::t_rank; }

// Instant marker for a superstep boundary; `bytes` is what the charge just
// billed this rank (the exact network volume, e.g. total-minus-own for
// allgatherv) and `superstep` the rank's counter value after the charge.
inline void superstep_mark(std::uint64_t bytes, std::uint64_t superstep) {
  if (!Tracer::enabled()) return;
  Tracer::instance().instant("superstep", SpanCategory::kSuperstep, bytes,
                             superstep);
}

// Instant marker for the fault-injection layer (comm/fault_injection.hpp):
// an injected fault firing, a failure being declared, or a recovery
// completing. `name` must be a string literal ("fault.delay", ...); `arg`
// carries a kind-specific detail (the delay in us for stragglers).
inline void fault_mark(const char* name, std::uint64_t arg,
                       std::uint64_t superstep) {
  if (!Tracer::enabled()) return;
  Tracer::instance().instant(name, SpanCategory::kFault, arg, superstep);
}

// Env/flag-driven session for example mains: enables tracing when forced or
// when AGNN_TRACE is set, and writes `path` on destruction.
class TraceSession {
 public:
  explicit TraceSession(std::string path = "trace.json", bool force = false)
      : path_(std::move(path)),
        active_(force || Tracer::env_wants_trace()) {
    if (active_) {
      Tracer::instance().clear();
      Tracer::set_enabled(true);
    }
  }
  ~TraceSession() {
    if (!active_) return;
    Tracer::set_enabled(false);
    // Drops are reported whether or not the file write succeeds, and land
    // in the metrics registry too — an incomplete trace must never look
    // like a quiet one.
    const std::uint64_t d = Tracer::instance().export_drop_metrics();
    if (d != 0) {
      std::fprintf(stderr,
                   "[obs] warning: %llu spans dropped by full trace buffers "
                   "(raise AGNN_TRACE_BUFFER)\n",
                   static_cast<unsigned long long>(d));
    }
    if (Tracer::instance().write_chrome_json_file(path_)) {
      std::fprintf(stderr,
                   "[obs] wrote %s — open in https://ui.perfetto.dev or "
                   "chrome://tracing\n",
                   path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] failed to write %s\n", path_.c_str());
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return active_; }

 private:
  std::string path_;
  bool active_;
};

#define AGNN_OBS_CONCAT2(a, b) a##b
#define AGNN_OBS_CONCAT(a, b) AGNN_OBS_CONCAT2(a, b)

// Scoped span: AGNN_TRACE_SCOPE("spmm", kKernel);
#define AGNN_TRACE_SCOPE(name, cat)                                       \
  const ::agnn::obs::SpanScope AGNN_OBS_CONCAT(agnn_trace_span_,          \
                                               __COUNTER__)(              \
      name, ::agnn::obs::SpanCategory::cat)

// Scoped span with a byte payload: collectives tag their volume.
#define AGNN_TRACE_SCOPE_BYTES(name, cat, bytes)                          \
  const ::agnn::obs::SpanScope AGNN_OBS_CONCAT(agnn_trace_span_,          \
                                               __COUNTER__)(              \
      name, ::agnn::obs::SpanCategory::cat,                               \
      static_cast<std::uint64_t>(bytes))

}  // namespace agnn::obs

#include <fstream>

namespace agnn::obs {
inline bool Tracer::write_chrome_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_json(os);
  return os.good();
}
}  // namespace agnn::obs
