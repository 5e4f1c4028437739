// Shared plumbing of the end-to-end benchmark: command line, seeded input
// streams, clocks, the metric report and its output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2ebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;  // span file written by --trace 1
};

// Derives an independent stream seed for one input (graph, features,
// labels, weights, arrivals, vertex draws) from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// Training inputs of train-kron and dist-er. VA, AGNN and GIN aggregate
// without normalization, so activations grow with degree^layers; with
// U(-1, 1) features and plain SGD their losses overflow float32 within a few
// steps on the scale-14 Kronecker graph. Features in U(-0.1, 0.1) and Adam
// (whose step does not scale with the gradient) keep every loss finite.
constexpr double kFeatureScale = 0.1;
constexpr float kLearningRate = 1e-3f;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb();

// One reported metric. `samples` is the count the value summarizes (rounds,
// requests, steps); 0 for counts and ratios computed once.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  int tail_q = 0;  // reported tail percentile (parts per ten thousand)
  double tail = 0;
  bool timing = false;  // a median over `samples`, reported with its tail
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples, 0, 0, false};
  }
  // A timing: its median, tail percentile and sample count.
  void set_timing(const std::string& name, const Summary& s, double scale,
                  const std::string& unit) {
    metrics_[name] = Metric{s.median * scale, unit, s.n, s.tail_q, s.tail * scale, true};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  FailCount fails;
  bool checks_ok = true;

 private:
  std::map<std::string, Metric> metrics_;
};

// Human-readable table on stdout, then the one-line JSON result as the last
// line. Returns the process exit code: non-zero when an output check failed.
int emit(const Args& args, const Report& report,
         const std::map<std::string, std::string>& context);

}  // namespace e2ebench
