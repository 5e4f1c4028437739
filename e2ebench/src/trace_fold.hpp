// Folding the tracer's span stream into per-layer totals.
//
// Tracer::collect() concatenates every recording thread's buffer; each buffer
// is a balanced, time-ordered B/E sequence, so one stack walks the whole
// stream. A span's self time is its duration minus the durations of the
// spans directly inside it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace e2ebench {

struct SpanAgg {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  std::uint64_t bytes = 0;
  agnn::obs::SpanCategory category = agnn::obs::SpanCategory::kPhase;
};

// Keyed by (simulated rank, span name); rank -1 is every thread outside
// SpmdRuntime.
using SpanTable = std::map<std::pair<int, std::string>, SpanAgg>;

SpanTable fold_spans(const std::vector<agnn::obs::TraceEvent>& events);

// The tensor-module group a kernel span belongs to: spmm, sddmm, psi,
// softmax, rowcol or fused; "" for spans that are not tensor kernels.
std::string tensor_group(const std::string& span_name);

// Per-rank sums of self time over the spans `pick` selects.
template <typename Pick>
std::map<int, double> self_by_rank(const SpanTable& t, Pick pick) {
  std::map<int, double> out;
  for (const auto& [key, agg] : t) {
    if (pick(key.second, agg)) out[key.first] += agg.self_s;
  }
  return out;
}

inline double max_over_ranks(const std::map<int, double>& m) {
  double x = 0;
  for (const auto& [r, v] : m) x = std::max(x, v);
  return x;
}

// Every span event recorded so far, then an empty tracer.
std::vector<agnn::obs::TraceEvent> drain_events();

bool write_trace(const std::string& path,
                 const std::vector<agnn::obs::TraceEvent>& events);

}  // namespace e2ebench
