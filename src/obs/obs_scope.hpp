// Combined per-call-site observability scopes.
//
// One macro per instrumented entry-point kind bundles the three signals the
// performance observatory wants from that site:
//
//   AGNN_KERNEL_SCOPE(name, bytes)     kernel entry points (src/tensor/)
//     = trace span (kKernel, byte-tagged with the kernel's algorithmic
//       traffic estimate, which TraceReport turns into GB/s)
//     + latency histogram  kernel.<name>.ns
//     + perf region        perf.<name>.*   (AGNN_PERF)
//
//   AGNN_COLLECTIVE_SCOPE(name, bytes) Communicator collectives
//     = trace span (kCollective, byte-tagged as before)
//     + latency histogram  comm.<name>.ns
//     + size histogram     comm.<name>.bytes
//
//   AGNN_EPOCH_SCOPE(name)             Trainer / MinibatchTrainer steps
//     = trace span (kEpoch)
//     + latency histogram  <name>.ns
//
// Cost model: everything except the perf region is gated on
// Tracer::enabled() — when tracing is off each scope costs the same one
// relaxed load + branch as a bare AGNN_TRACE_SCOPE (the disabled-cost
// contract bench_kernels asserts). The perf region is gated on its own
// AGNN_PERF flag so hardware counting works with or without the tracer.
// Histogram references resolve once per call site through a function-local
// static inside a captureless lambda, so the enabled hot path is a clock
// read + one wait-free record — no strings, no registry lock, no
// allocation.
#pragma once

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"

namespace agnn::obs {

// RAII latency recorder. `HistFn` is only invoked when tracing is enabled,
// so disabled runs never touch the registry at all.
class LatencyScope {
 public:
  using HistFn = Histogram& (*)();

  explicit LatencyScope(HistFn fn) {
    if (!Tracer::enabled()) return;
    hist_ = &fn();
    start_ns_ = detail::now_ns();
  }

  ~LatencyScope() {
    if (hist_ != nullptr) hist_->record(detail::now_ns() - start_ns_);
  }

  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  Histogram* hist_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

// LatencyScope plus a message-size observation at entry (collectives want
// both the latency and the payload distribution per collective kind).
class CollectiveObsScope {
 public:
  using HistFn = Histogram& (*)();

  CollectiveObsScope(HistFn latency_fn, HistFn size_fn, std::uint64_t bytes) {
    if (!Tracer::enabled()) return;
    size_fn().record(bytes);
    hist_ = &latency_fn();
    start_ns_ = detail::now_ns();
  }

  ~CollectiveObsScope() {
    if (hist_ != nullptr) hist_->record(detail::now_ns() - start_ns_);
  }

  CollectiveObsScope(const CollectiveObsScope&) = delete;
  CollectiveObsScope& operator=(const CollectiveObsScope&) = delete;

 private:
  Histogram* hist_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

// ---- algorithmic-traffic estimates ---------------------------------------
// The byte tags on kernel spans. These count compulsory traffic — every
// CSR array once, every dense operand element once per use, every gather
// once — not measured cache-line traffic; they are the numerator of the
// roofline GB/s attribution (TraceReport::build_kernels), good for
// comparing kernels and variants, not for absolute bandwidth claims.

// One pass over a CSR matrix: values + column indices + row pointers.
constexpr std::uint64_t csr_pass_bytes(std::uint64_t nnz, std::uint64_t rows,
                                       std::size_t val_size,
                                       std::size_t idx_size) {
  return nnz * (val_size + idx_size) + (rows + 1) * idx_size;
}

// CSR x dense SpMM: CSR pass + one dense gather per nonzero + the output.
constexpr std::uint64_t spmm_traffic_bytes(std::uint64_t nnz,
                                           std::uint64_t rows,
                                           std::uint64_t k,
                                           std::size_t val_size,
                                           std::size_t idx_size) {
  return csr_pass_bytes(nnz, rows, val_size, idx_size) +
         (nnz + rows) * k * val_size;
}

// SDDMM: CSR pass + two dense row gathers per nonzero + the sampled output.
constexpr std::uint64_t sddmm_traffic_bytes(std::uint64_t nnz,
                                            std::uint64_t rows,
                                            std::uint64_t k,
                                            std::size_t val_size,
                                            std::size_t idx_size) {
  return csr_pass_bytes(nnz, rows, val_size, idx_size) +
         2 * nnz * k * val_size + nnz * val_size;
}

// Dense (m x k) * (k x n): each operand and the output once.
constexpr std::uint64_t gemm_traffic_bytes(std::uint64_t m, std::uint64_t k,
                                           std::uint64_t n,
                                           std::size_t val_size) {
  return (m * k + k * n + m * n) * val_size;
}

// Element-wise pass over `elems` elements: each of `arrays` arrays (the
// inputs and the output) once.
constexpr std::uint64_t elementwise_traffic_bytes(std::uint64_t elems,
                                                  std::uint64_t arrays,
                                                  std::size_t val_size) {
  return elems * arrays * val_size;
}

}  // namespace agnn::obs

// Resolve-once histogram reference: a captureless lambda (decays to the
// plain function pointer LatencyScope expects) wrapping a function-local
// static registration.
#define AGNN_OBS_HIST_FN(hist_name)                                     \
  +[]() -> ::agnn::obs::Histogram& {                                    \
    static ::agnn::obs::Histogram& agnn_h =                             \
        ::agnn::obs::MetricsRegistry::global().histogram(hist_name);    \
    return agnn_h;                                                      \
  }

#define AGNN_KERNEL_SCOPE(name, bytes)                                  \
  AGNN_TRACE_SCOPE_BYTES(name, kKernel, bytes);                         \
  const ::agnn::obs::LatencyScope AGNN_OBS_CONCAT(agnn_kernel_lat_,     \
                                                  __COUNTER__)(         \
      AGNN_OBS_HIST_FN("kernel." name ".ns"));                          \
  AGNN_PERF_SCOPE(name)

#define AGNN_COLLECTIVE_SCOPE(name, bytes)                              \
  AGNN_TRACE_SCOPE_BYTES(name, kCollective, bytes);                     \
  const ::agnn::obs::CollectiveObsScope AGNN_OBS_CONCAT(                \
      agnn_coll_obs_, __COUNTER__)(                                     \
      AGNN_OBS_HIST_FN("comm." name ".ns"),                             \
      AGNN_OBS_HIST_FN("comm." name ".bytes"),                          \
      static_cast<std::uint64_t>(bytes))

#define AGNN_EPOCH_SCOPE(name)                                          \
  AGNN_TRACE_SCOPE(name, kEpoch);                                       \
  const ::agnn::obs::LatencyScope AGNN_OBS_CONCAT(agnn_epoch_lat_,      \
                                                  __COUNTER__)(         \
      AGNN_OBS_HIST_FN(name ".ns"))

// Serving pipeline stages (enqueue -> batch -> sample -> gather -> forward
// -> reply). Same shape as AGNN_EPOCH_SCOPE but in the kPhase category, so
// a traced serving run shows the per-batch stage breakdown alongside the
// kernel spans it encloses.
#define AGNN_STAGE_SCOPE(name)                                          \
  AGNN_TRACE_SCOPE(name, kPhase);                                       \
  const ::agnn::obs::LatencyScope AGNN_OBS_CONCAT(agnn_stage_lat_,      \
                                                  __COUNTER__)(         \
      AGNN_OBS_HIST_FN(name ".ns"))
