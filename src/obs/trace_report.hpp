// Model-vs-measurement report over a recorded trace.
//
// The simulated cluster *measures* compute (span wall time on the rank
// threads) but *models* communication (alpha-beta over the charged volume).
// This report joins the two: every collective span becomes a row group —
// keyed by the collective's name — accumulating
//
//   * the measured kernel time that preceded it on the same rank since the
//     previous collective (the compute the BSP superstep overlaps nothing
//     with), reduced with max over ranks per occurrence, and
//   * the modeled comm time of the collective itself, alpha * supersteps +
//     beta * bytes, again max over ranks per occurrence.
//
// A row whose measured compute is more than `deviation_factor` times the
// modeled comm (or less than 1/factor of it) is flagged: that superstep's
// balance is not what the volume model predicts, which is exactly the
// discrepancy the paper's Section 7 accounting is supposed to rule out.
// Only depth-1 kernel spans count toward compute (fused kernels call other
// instrumented kernels; counting both would double-bill).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace agnn::obs {

struct TraceReportRow {
  std::string name;             // collective span name
  std::uint64_t calls = 0;      // occurrences (summed over ranks)
  std::uint64_t bytes = 0;      // total charged bytes (summed over ranks)
  std::uint64_t supersteps = 0; // total supersteps (summed over ranks)
  double compute_seconds = 0;   // measured kernel time preceding, max-rank
  double comm_seconds = 0;      // modeled alpha-beta time, max-rank
  bool flagged = false;         // compute/comm ratio outside [1/f, f]

  double ratio() const {
    return comm_seconds > 0 ? compute_seconds / comm_seconds : 0.0;
  }
};

class TraceReport {
 public:
  explicit TraceReport(comm::CostModel model = {},
                       double deviation_factor = 2.0)
      : model_(model), factor_(deviation_factor) {}

  // Build rows from raw events (e.g. Tracer::instance().collect()).
  std::vector<TraceReportRow> build(std::vector<TraceEvent> events) const {
    // Per-rank chronological order; buffers from different threads of the
    // same rank (across SpmdRuntime runs) interleave correctly because the
    // timestamps share one steady clock.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.rank != b.rank) return a.rank < b.rank;
                       return a.ts_ns < b.ts_ns;
                     });

    struct Accum {
      std::uint64_t calls = 0;
      std::uint64_t bytes = 0;
      std::uint64_t supersteps = 0;
      double compute_seconds = 0;
      double comm_seconds = 0;
    };
    std::map<std::string, Accum> rows;

    std::size_t i = 0;
    while (i < events.size()) {
      const std::int32_t rank = events[i].rank;
      // Walk one rank's timeline.
      std::uint64_t kernel_ns_since_collective = 0;
      std::uint64_t kernel_begin_ns = 0;
      int kernel_depth = 0;
      const char* open_collective = nullptr;  // innermost collective span
      std::uint64_t open_collective_bytes = 0;
      std::uint64_t open_collective_charged = 0;  // from superstep instants
      std::uint64_t open_collective_begin_step = 0;
      std::uint64_t last_superstep = 0;
      for (; i < events.size() && events[i].rank == rank; ++i) {
        const TraceEvent& e = events[i];
        switch (e.category) {
          case SpanCategory::kKernel:
            if (e.phase == 'B') {
              if (kernel_depth == 0) kernel_begin_ns = e.ts_ns;
              ++kernel_depth;
            } else if (e.phase == 'E' && kernel_depth > 0) {
              --kernel_depth;
              if (kernel_depth == 0) {
                kernel_ns_since_collective += e.ts_ns - kernel_begin_ns;
              }
            }
            break;
          case SpanCategory::kCollective:
            if (e.phase == 'B') {
              open_collective = e.name;
              open_collective_bytes = e.bytes;
              open_collective_charged = 0;
              open_collective_begin_step = last_superstep;
            } else if (e.phase == 'E' && open_collective != nullptr) {
              // Prefer what the charge actually billed (exact even for
              // allgatherv, whose volume is only known mid-call) over the
              // span's entry-time estimate.
              const std::uint64_t bytes = open_collective_charged > 0
                                              ? open_collective_charged
                                              : open_collective_bytes;
              Accum& a = rows[open_collective];
              a.calls += 1;
              a.bytes += bytes;
              const std::uint64_t steps =
                  last_superstep - open_collective_begin_step;
              a.supersteps += steps;
              const double comm =
                  model_.alpha * static_cast<double>(steps) +
                  model_.beta * static_cast<double>(bytes);
              a.comm_seconds = std::max(a.comm_seconds, comm);
              a.compute_seconds =
                  std::max(a.compute_seconds,
                           static_cast<double>(kernel_ns_since_collective) *
                               1e-9);
              kernel_ns_since_collective = 0;
              open_collective = nullptr;
            }
            break;
          case SpanCategory::kSuperstep:
            last_superstep = std::max(last_superstep, e.superstep);
            if (open_collective != nullptr) {
              open_collective_charged += e.bytes;
            }
            break;
          default:
            break;  // phases/epochs structure the trace, not this table
        }
      }
    }

    std::vector<TraceReportRow> out;
    out.reserve(rows.size());
    for (const auto& [name, a] : rows) {
      TraceReportRow r;
      r.name = name;
      r.calls = a.calls;
      r.bytes = a.bytes;
      r.supersteps = a.supersteps;
      r.compute_seconds = a.compute_seconds;
      r.comm_seconds = a.comm_seconds;
      r.flagged = a.comm_seconds > 0 &&
                  (r.ratio() > factor_ || r.ratio() < 1.0 / factor_);
      out.push_back(std::move(r));
    }
    return out;
  }

  // Render the table. Returns the number of flagged rows.
  std::size_t print(std::ostream& os,
                    const std::vector<TraceReportRow>& rows) const {
    os << std::left << std::setw(28) << "collective" << std::right
       << std::setw(8) << "calls" << std::setw(14) << "bytes"
       << std::setw(7) << "steps" << std::setw(13) << "compute_ms"
       << std::setw(13) << "comm_ms(mod)" << std::setw(9) << "ratio"
       << "  flag\n";
    std::size_t flagged = 0;
    for (const auto& r : rows) {
      os << std::left << std::setw(28) << r.name << std::right
         << std::setw(8) << r.calls << std::setw(14) << r.bytes
         << std::setw(7) << r.supersteps << std::setw(13) << std::fixed
         << std::setprecision(4) << r.compute_seconds * 1e3 << std::setw(13)
         << r.comm_seconds * 1e3 << std::setw(9) << std::setprecision(2)
         << r.ratio() << "  " << (r.flagged ? ">2x" : "") << "\n";
      if (r.flagged) ++flagged;
    }
    return flagged;
  }

  std::size_t print(std::ostream& os) const {
    return print(os, build(Tracer::instance().collect()));
  }

  // Bridge the deviation flags into the metrics registry so they survive
  // into the machine-readable dump instead of living only in the printed
  // table: one gauge per flagged collective carrying its compute/comm
  // ratio, plus the flagged-row count.
  static void export_flags(const std::vector<TraceReportRow>& rows,
                           MetricsRegistry& reg = MetricsRegistry::global()) {
    std::size_t flagged = 0;
    for (const auto& r : rows) {
      if (!r.flagged) continue;
      ++flagged;
      reg.gauge("trace_report.deviation." + r.name).set(r.ratio());
    }
    reg.gauge("trace_report.flagged_rows")
        .set(static_cast<double>(flagged));
  }

  // ---- per-kernel roofline attribution ----------------------------------
  // Depth-1 kernel spans carry a byte tag (the kernel's algorithmic memory
  // traffic, set at the AGNN_KERNEL_SCOPE call site); joining wall time
  // against those bytes gives effective GB/s, and joining against the
  // perf.<kernel>.* counters (when AGNN_PERF ran) gives IPC and miss
  // rates — the "why does this variant win" attribution, not just the
  // ranking.
  struct KernelRow {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;       // summed algorithmic traffic estimate
    double wall_seconds = 0;       // summed over calls and ranks
    std::uint64_t cycles = 0;      // perf counters (0 when unavailable)
    std::uint64_t instructions = 0;
    double ipc = 0;
    double cache_miss_rate = 0;
    bool has_perf = false;

    double gbps() const {
      return wall_seconds > 0
                 ? static_cast<double>(bytes) / wall_seconds * 1e-9
                 : 0.0;
    }
  };

  static std::vector<KernelRow> build_kernels(
      std::vector<TraceEvent> events,
      const MetricsRegistry& reg = MetricsRegistry::global()) {
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.rank != b.rank) return a.rank < b.rank;
                       return a.ts_ns < b.ts_ns;
                     });

    struct Accum {
      std::uint64_t calls = 0;
      std::uint64_t bytes = 0;
      std::uint64_t wall_ns = 0;
    };
    std::map<std::string, Accum> acc;

    // Per-rank span stack; only depth-1 kernel spans accumulate (fused
    // kernels call instrumented kernels — counting both would double-bill,
    // same rule as the compute accounting above).
    struct Open {
      const char* name;
      std::uint64_t begin_ns;
      std::uint64_t bytes;
    };
    std::size_t i = 0;
    while (i < events.size()) {
      const std::int32_t rank = events[i].rank;
      std::vector<Open> stack;
      for (; i < events.size() && events[i].rank == rank; ++i) {
        const TraceEvent& e = events[i];
        if (e.category != SpanCategory::kKernel) continue;
        if (e.phase == 'B') {
          stack.push_back({e.name, e.ts_ns, e.bytes});
        } else if (e.phase == 'E' && !stack.empty()) {
          const Open top = stack.back();
          stack.pop_back();
          if (stack.empty()) {
            Accum& a = acc[top.name];
            a.calls += 1;
            a.bytes += top.bytes;
            a.wall_ns += e.ts_ns - top.begin_ns;
          }
        }
      }
    }

    std::vector<KernelRow> out;
    out.reserve(acc.size());
    for (const auto& [name, a] : acc) {
      KernelRow r;
      r.name = name;
      r.calls = a.calls;
      r.bytes = a.bytes;
      r.wall_seconds = static_cast<double>(a.wall_ns) * 1e-9;
      const std::string p = "perf." + name;
      if (const Counter* c = reg.find_counter(p + ".cycles")) {
        r.cycles = c->value();
      }
      if (const Counter* c = reg.find_counter(p + ".instructions")) {
        r.instructions = c->value();
      }
      r.has_perf = r.cycles > 0;
      if (const Gauge* g = reg.find_gauge(p + ".ipc")) r.ipc = g->value();
      if (const Gauge* g = reg.find_gauge(p + ".cache_miss_rate")) {
        r.cache_miss_rate = g->value();
      }
      out.push_back(std::move(r));
    }
    return out;
  }

  // Render the roofline table; perf columns show '-' when the counters
  // were unavailable (or AGNN_PERF was off).
  static void print_kernels(std::ostream& os,
                            const std::vector<KernelRow>& rows) {
    os << std::left << std::setw(24) << "kernel" << std::right
       << std::setw(8) << "calls" << std::setw(11) << "wall_ms"
       << std::setw(11) << "MB" << std::setw(9) << "GB/s"
       << std::setw(7) << "IPC" << std::setw(10) << "cache_mr" << "\n";
    for (const auto& r : rows) {
      os << std::left << std::setw(24) << r.name << std::right
         << std::setw(8) << r.calls << std::setw(11) << std::fixed
         << std::setprecision(4) << r.wall_seconds * 1e3 << std::setw(11)
         << std::setprecision(3) << static_cast<double>(r.bytes) / 1e6
         << std::setw(9) << std::setprecision(2) << r.gbps();
      if (r.has_perf) {
        os << std::setw(7) << std::setprecision(2) << r.ipc << std::setw(10)
           << std::setprecision(4) << r.cache_miss_rate;
      } else {
        os << std::setw(7) << "-" << std::setw(10) << "-";
      }
      os << "\n";
    }
  }

 private:
  comm::CostModel model_;
  double factor_;
};

}  // namespace agnn::obs
