#include "trace_fold.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>

namespace e2ebench {

SpanTable fold_spans(const std::vector<agnn::obs::TraceEvent>& events) {
  struct Frame {
    const agnn::obs::TraceEvent* begin;
    std::uint64_t child_ns;
  };
  SpanTable table;
  std::vector<Frame> stack;
  for (const auto& e : events) {
    if (e.phase == 'B') {
      stack.push_back({&e, 0});
      continue;
    }
    if (e.phase != 'E') continue;
    // Async collectives close by name, so match the innermost open span of
    // the same name and rank.
    std::size_t i = stack.size();
    while (i > 0 && (stack[i - 1].begin->rank != e.rank ||
                     std::string_view(stack[i - 1].begin->name) != e.name)) {
      --i;
    }
    if (i == 0) continue;
    const Frame f = stack[i - 1];
    stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i - 1));
    const std::uint64_t dur = e.ts_ns - f.begin->ts_ns;
    SpanAgg& agg = table[{f.begin->rank, f.begin->name}];
    agg.count += 1;
    agg.total_s += static_cast<double>(dur) * 1e-9;
    agg.self_s += static_cast<double>(dur - std::min(dur, f.child_ns)) * 1e-9;
    agg.bytes += f.begin->bytes;
    agg.category = f.begin->category;
    if (i - 1 > 0 && stack[i - 2].begin->rank == f.begin->rank) {
      stack[i - 2].child_ns += dur;
    }
  }
  return table;
}

std::string tensor_group(const std::string& n) {
  if (n == "spmm" || n == "spmm_accumulate" || n == "spmm_semiring" ||
      n == "summa.stage_spmm") {
    return "spmm";
  }
  if (n == "sddmm" || n == "sddmm_unweighted" || n == "summa.stage_scores") {
    return "sddmm";
  }
  if (n == "psi_va" || n == "psi_agnn" || n == "psi_gat") return "psi";
  if (n == "row_softmax" || n == "row_softmax_backward") return "softmax";
  if (n == "sparse_row_sums" || n == "sparse_col_sums" ||
      n == "hadamard_same_pattern" || n == "scale_rows_cols" ||
      n == "add_transpose") {
    return "rowcol";
  }
  if (n == "fused_va_aggregate" || n == "fused_gat_aggregate") return "fused";
  return "";
}

std::vector<agnn::obs::TraceEvent> drain_events() {
  auto& tracer = agnn::obs::Tracer::instance();
  if (const std::uint64_t d = tracer.dropped_events(); d != 0) {
    std::fprintf(stderr, "e2ebench: the tracer dropped %llu spans; per-layer figures are partial\n",
                 static_cast<unsigned long long>(d));
  }
  std::vector<agnn::obs::TraceEvent> ev = tracer.collect();
  tracer.clear();
  return ev;
}

bool write_trace(const std::string& path,
                 const std::vector<agnn::obs::TraceEvent>& events) {
  std::ofstream os(path);
  if (!os) return false;
  agnn::obs::Tracer::write_chrome_json(os, events);
  return os.good();
}

}  // namespace e2ebench
