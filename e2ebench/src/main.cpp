// e2ebench: end-to-end benchmark of the library's public entry points.
//
//   e2ebench --workload train-kron|dist-er|serve-zipf --seed N --seconds S
//            --trace 0|1 [--git-sha SHA] [--trace-out PATH]
//
// Prints a metric table, then one JSON line: {"correct", "attempted",
// "failed", "metrics"}. Exit code 1 when an output check failed, 2 on a usage
// or environment error (no JSON line then). README.md lists the workloads
// and metrics.
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "obs/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace e2ebench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"graph.build_s", "s"},
        {"tensor.spmm_s", "s"},          {"tensor.sddmm_s", "s"},
        {"tensor.psi_s", "s"},           {"tensor.softmax_s", "s"},
        {"tensor.rowcol_s", "s"},        {"tensor.fused_s", "s"},
        {"tensor.calls", "count"},       {"tensor.bytes", "B"},
        {"tensor.gbps", "GB/s"},
        {"core.forward_s", "s"},         {"core.backward_s", "s"},
        {"core.loss_update_s", "s"},     {"core.infer_s", "s"},
        {"core.unattributed_frac", "ratio"},
        {"core.workspace.hit_rate", "ratio"},
        {"core.workspace.misses", "count"},
        {"comm.bytes", "B"},             {"comm.messages", "count"},
        {"comm.supersteps", "count"},    {"comm.modeled_s", "s"},
        {"comm.wait_s", "s"},            {"comm.collective_s", "s"},
        {"dist.compute_s", "s"},         {"dist.modeled_s", "s"},
        {"dist.imbalance", "ratio"},
        {"dist.setup_s", "s"},
        {"serve.queue_ms", "ms"},        {"serve.batch_size_p50", "count"},
        {"serve.sample_ms", "ms"},       {"serve.gather_ms", "ms"},
        {"serve.forward_ms", "ms"},      {"serve.reply_ms", "ms"},
        {"serve.cache.hit_rate", "ratio"},
        {"serve.refused", "count"},      {"serve.backlog", "count"},
        {"serve.gen_late_ms", "ms"},
        {"obs.trace_overhead", "ratio"},
    };
    for (const char* k : {"GAT", "VA", "AGNN", "GCN", "GIN"}) {
      v.emplace_back(std::string("core.") + k + ".epoch_s", "s");
      v.emplace_back(std::string("core.") + k + ".infer_s", "s");
    }
    for (const char* p : {"1d", "15d", "2d", "3d"}) {
      v.emplace_back(std::string("comm.") + p + ".bytes", "B");
      v.emplace_back(std::string("dist.") + p + ".epoch_s", "s");
      v.emplace_back(std::string("dist.") + p + ".infer_s", "s");
    }
    return v;
  }();
  return kList;
}

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: e2ebench --workload train-kron|dist-er|serve-zipf "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--trace-out PATH]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(k));
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage_error("unknown argument " + std::string(k));
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + std::string(k) + ": " + v);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (a.seconds < 1) usage_error("--seconds must be at least 1");
  return a;
}

// The library reads AGNN_* knobs from the environment, and some of them fall
// back silently on a typo; a benchmark run must not depend on them.
void refuse_ambient_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AGNN_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name(*e, eq ? static_cast<std::size_t>(eq - *e)
                                    : std::strlen(*e));
      usage_error("refusing to run with " + name +
                  " set; unset every AGNN_* variable");
    }
  }
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  const Args args = parse(argc, argv);
  refuse_ambient_knobs();

  // Thread budget: train-kron runs 4 OpenMP threads; dist-er (4 ranks) and
  // serve-zipf (generator + 2 workers) run 1 each. Rank and worker threads
  // take the process-wide OpenMP default, so it is set in the environment
  // before start (run.py) and checked here.
  int want_omp = 0;
  if (args.workload == "train-kron") {
    want_omp = 4;
  } else if (args.workload == "dist-er" || args.workload == "serve-zipf") {
    want_omp = 1;
  } else {
    usage_error("unknown workload " + args.workload);
  }
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  if (omp_env == nullptr || std::atoi(omp_env) != want_omp ||
      omp_get_max_threads() != want_omp) {
    usage_error("workload " + args.workload + " needs OMP_NUM_THREADS=" +
                std::to_string(want_omp) + " in the environment");
  }
  if (args.trace) {
    // Room for every span of a traced run: a serving worker records ~30 per
    // batch and a dist-er rank ~8k per round; a full buffer drops spans.
    agnn::obs::Tracer::instance().set_buffer_capacity(std::size_t(1) << 20);
  }
  Report report;
  if (args.workload == "train-kron") {
    run_train_kron(args, report);
  } else if (args.workload == "dist-er") {
    run_dist_er(args, report);
  } else {
    run_serve_zipf(args, report);
  }

  if (!args.trace) {
    // Printed, not gated: on serve-zipf the resident set grows with the
    // requests served at a rate that depends on the seed's graph.
    std::printf("# not gated: peak_rss_mb %.2f MB\n", peak_rss_mb());
  } else {
    // Every per-layer metric appears in every traced run; a module that did
    // no work on this workload reports 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (report.metrics().count(name) == 0) report.set(name, 0.0, unit);
    }
  }
  const std::map<std::string, std::string> context = {
      {"git_sha", args.git_sha},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"omp_threads", std::to_string(omp_get_max_threads())},
      {"seed", std::to_string(args.seed)},
  };
  return emit(args, report, context);
}
