// The benchmark's own arithmetic: percentiles, failure counting, open-loop
// latency and the modeled BSP step time. It depends on nothing in the
// library, so tests/test_stats.cpp checks it on synthetic inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace e2ebench {

// ---- percentiles -------------------------------------------------------------

// Nearest-rank percentile in parts per ten thousand (9900 = p99) of an
// ascending sample: the value at rank ceil(q * n / 10000).
inline double percentile_sorted(std::span<const double> sorted, int q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = sorted.size();
  std::size_t rank = (static_cast<std::size_t>(q) * n + 9999) / 10000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

inline double median_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return median_sorted(v);
}

// The highest of p90, p99, p99.9, p99.99 that leaves at least ten samples
// beyond its nearest rank, in parts per ten thousand; nullopt when even p90
// does not (fewer than 100 samples).
inline std::optional<int> tail_percentile_for(std::size_t n) {
  constexpr std::array<int, 4> kLadder = {9999, 9990, 9900, 9000};
  for (const int q : kLadder) {
    const std::size_t rank = (static_cast<std::size_t>(q) * n + 9999) / 10000;
    if (n >= rank + 10) return q;
  }
  return std::nullopt;
}

// The sum over the parts of a round (engines, model kinds) of each part's
// median over rounds. On a host that stalls for a second or two now and
// then, most rounds hold a stall somewhere, so the median of the round sums
// holds one too; a part's median leaves out the rounds in which that part
// stalled.
inline double sum_of_medians(const std::vector<std::vector<double>>& parts) {
  double sum = 0;
  for (const auto& p : parts) sum += median(p);
  return sum;
}

// A timing as it is reported: the median, plus the highest percentile the
// sample supports, with the sample count.
struct Summary {
  std::size_t n = 0;
  double median = std::numeric_limits<double>::quiet_NaN();
  int tail_q = 0;  // parts per ten thousand; 0 = no tail percentile
  double tail = std::numeric_limits<double>::quiet_NaN();
};

inline Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.median = median_sorted(samples);
  if (const auto q = tail_percentile_for(s.n)) {
    s.tail_q = *q;
    s.tail = percentile_sorted(samples, *q);
  }
  return s;
}

// The median over consecutive time windows of each window's percentile q
// (parts per ten thousand; `window[i]` is sample i's window): the figure of
// a typical window, so that one stall of the host, which fills a single
// window's tail, does not decide it, while a queue that keeps growing still
// fails most windows. Empty windows are skipped.
inline double windowed_percentile(std::span<const double> samples,
                                  std::span<const std::uint32_t> window, int q) {
  std::uint32_t nwin = 0;
  for (const std::uint32_t w : window) nwin = std::max(nwin, w + 1);
  std::vector<std::vector<double>> by_window(nwin);
  for (std::size_t i = 0; i < samples.size() && i < window.size(); ++i) {
    by_window[window[i]].push_back(samples[i]);
  }
  std::vector<double> per_window;
  for (auto& w : by_window) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(percentile_sorted(w, q));
  }
  return median(std::move(per_window));
}

// ---- failures ----------------------------------------------------------------

// Failed / attempted over epochs, steps or requests. A failure is a failed
// output check, a non-finite loss, a reply that is not OK, or a refused
// request.
struct FailCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// ---- open-loop latency -------------------------------------------------------

// Latency of one open-loop request, timed from when it was due: the
// generator's lateness (send - due) plus the server's enqueue-to-reply time.
// A refused request has no reply and counts as over every latency limit.
inline double latency_from_due_ms(std::int64_t due_ns, std::int64_t send_ns,
                                  std::uint64_t server_latency_ns,
                                  bool refused) {
  if (refused) return std::numeric_limits<double>::infinity();
  return (static_cast<double>(send_ns - due_ns) +
          static_cast<double>(server_latency_ns)) *
         1e-6;
}

// ---- modeled BSP step time ---------------------------------------------------

// One rank's share of one distributed step: thread-CPU compute and the exact
// communication it was charged.
struct RankStep {
  double compute_s = 0;
  std::uint64_t bytes = 0;
  std::uint64_t supersteps = 0;
};

struct AlphaBeta {
  double alpha = 1.5e-6;        // seconds per superstep
  double beta = 1.0 / 10.0e9;   // seconds per byte
};

inline double comm_seconds(const RankStep& r, const AlphaBeta& ab) {
  return ab.alpha * static_cast<double>(r.supersteps) +
         ab.beta * static_cast<double>(r.bytes);
}

// The paper's step time: slowest rank's compute plus slowest rank's
// communication (the two maxima may come from different ranks).
inline double modeled_step_seconds(std::span<const RankStep> ranks,
                                   const AlphaBeta& ab) {
  double comp = 0, comm = 0;
  for (const RankStep& r : ranks) {
    comp = std::max(comp, r.compute_s);
    comm = std::max(comm, comm_seconds(r, ab));
  }
  return comp + comm;
}

}  // namespace e2ebench
