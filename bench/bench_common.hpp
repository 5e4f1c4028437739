// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every distributed benchmark runs on the simulated cluster and reports,
// per measured step:
//   * manual time  = the alpha-beta BSP modeled end-to-end time
//                    (max-rank compute + max-rank modeled communication),
//                    which is what the paper's wall-clock figures measure
//                    on the real machine;
//   * counters     : comm_MB   — max per-rank communication volume,
//                    compute_s — max per-rank compute (thread CPU time),
//                    comm_s    — modeled communication time.
//
// Graph sizes are scaled down from the paper (Section 8 ran on up to 1024
// Piz Daint nodes); the sweep structure — densities, k, layer count, rank
// counts, weak-scaling rule n ~ sqrt(p) — is preserved. See DESIGN.md and
// EXPERIMENTS.md.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "baseline/dist_local_engine.hpp"
#include "baseline/minibatch.hpp"
#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "obs/bench_report.hpp"
#include "obs/perf_counters.hpp"

namespace agnn::bench {

using real_t = float;  // the paper's evaluation precision (float32)

inline const comm::CostModel& cost_model() {
  // Approximates the Cray Aries interconnect of the paper's testbed.
  static const comm::CostModel model{.alpha = 1.5e-6, .beta = 1.0 / 10.0e9};
  return model;
}

// ---- workloads ----------------------------------------------------------------

// Kronecker graph with n = 2^scale and m ~= density * n^2 (dataset B0).
inline graph::Graph<real_t> kronecker_graph(int scale, double density,
                                            std::uint64_t seed = 1) {
  const double n = static_cast<double>(index_t(1) << scale);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edges = static_cast<index_t>(density * n * n);
  params.seed = seed;
  return graph::build_graph<real_t>(graph::generate_kronecker(params));
}

// Erdős–Rényi graph (dataset B2, the "Rand" graphs of Section 8.4).
inline graph::Graph<real_t> uniform_graph(index_t n, double density,
                                          std::uint64_t seed = 1) {
  return graph::build_graph<real_t>(
      graph::generate_erdos_renyi({.n = n, .q = density, .seed = seed}));
}

inline GnnConfig model_config(ModelKind kind, index_t k, int layers,
                              std::uint64_t seed = 7) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.hidden_activation = Activation::kRelu;
  cfg.seed = seed;
  return cfg;
}

// ---- measured runs --------------------------------------------------------------

struct RunResult {
  double modeled_seconds = 0;   // max compute + max modeled comm
  double compute_seconds = 0;   // max per-rank thread CPU time
  double comm_seconds = 0;      // max per-rank modeled comm time
  double comm_mbytes = 0;       // max per-rank bytes sent, in MB
};

inline RunResult summarize(const std::vector<comm::VolumeSnapshot>& stats) {
  RunResult r;
  r.compute_seconds = comm::max_compute_seconds(stats);
  r.comm_seconds = cost_model().max_comm_time(stats);
  r.modeled_seconds = r.compute_seconds + r.comm_seconds;
  r.comm_mbytes = static_cast<double>(comm::max_bytes_sent(stats)) / 1e6;
  return r;
}

enum class Engine { kGlobal, kLocalFull, kLocalMinibatch };

inline const char* to_string(Engine e) {
  switch (e) {
    case Engine::kGlobal: return "global";
    case Engine::kLocalFull: return "local_full";
    case Engine::kLocalMinibatch: return "local_minibatch";
  }
  return "?";
}

struct Workload {
  const CsrMatrix<real_t>* adj = nullptr;
  index_t k = 16;
  int layers = 3;          // the paper's figures use 3 GNN layers
  bool training = true;    // forward+backward+update vs inference
  index_t minibatch_size = 1 << 14;  // DistDGL's 16k-vertex mini-batches
};

// One measured step of the GLOBAL formulation on p simulated ranks.
inline RunResult run_global(const Workload& w, ModelKind kind, int ranks) {
  const CsrMatrix<real_t> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(*w.adj) : *w.adj;
  Rng rng(11);
  DenseMatrix<real_t> x(adj.rows(), w.k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(adj.rows()));
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(
                             static_cast<std::uint64_t>(w.k)));

  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<real_t> model(model_config(kind, w.k, w.layers));
    dist::DistEngine<real_t> engine(world, adj, model, dist::DistPolicy::k1_5D);
    // Warm-up step excluded from accounting (the artifact uses 2 warm-ups;
    // one is enough to touch all allocations here).
    if (w.training) {
      SgdOptimizer<real_t> opt(0.01f);
      engine.train_step(x, labels, opt);
      comm::reset_all_stats(world);
      engine.train_step(x, labels, opt);
    } else {
      engine.forward(x, nullptr);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    }
  });
  return summarize(stats);
}

// One measured step of the LOCAL formulation (message-passing / ghost
// exchange — the DistDGL-style baseline) on p simulated ranks.
inline RunResult run_local(const Workload& w, ModelKind kind, int ranks) {
  const CsrMatrix<real_t> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(*w.adj) : *w.adj;
  Rng rng(11);
  DenseMatrix<real_t> x(adj.rows(), w.k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(adj.rows()));
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(
                             static_cast<std::uint64_t>(w.k)));

  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<real_t> model(model_config(kind, w.k, w.layers));
    baseline::DistLocalEngine<real_t> engine(world, adj, model);
    if (w.training) {
      SgdOptimizer<real_t> opt(0.01f);
      engine.train_step(x, labels, opt);
      comm::reset_all_stats(world);
      engine.train_step(x, labels, opt);
    } else {
      engine.forward(x, nullptr);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    }
  });
  return summarize(stats);
}

// One mini-batch step (the DistDGL mini-batch execution mode): sample a
// 16k-vertex batch (clamped to the graph), run the model on the induced
// subgraph through the local-formulation engine on the same rank count.
inline RunResult run_minibatch(const Workload& w, ModelKind kind, int ranks) {
  const CsrMatrix<real_t> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(*w.adj) : *w.adj;
  const auto mb = baseline::sample_minibatch(adj, w.minibatch_size, 3);
  Rng rng(11);
  DenseMatrix<real_t> x(mb.adj.rows(), w.k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(mb.adj.rows()));
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(
                             static_cast<std::uint64_t>(w.k)));

  const auto stats = comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
    GnnModel<real_t> model(model_config(kind, w.k, w.layers));
    baseline::DistLocalEngine<real_t> engine(world, mb.adj, model);
    if (w.training) {
      SgdOptimizer<real_t> opt(0.01f);
      engine.train_step(x, labels, opt);
      comm::reset_all_stats(world);
      engine.train_step(x, labels, opt);
    } else {
      engine.forward(x, nullptr);
      comm::reset_all_stats(world);
      engine.forward(x, nullptr);
    }
  });
  return summarize(stats);
}

inline RunResult run_engine(Engine engine, const Workload& w, ModelKind kind,
                            int ranks) {
  switch (engine) {
    case Engine::kGlobal: return run_global(w, kind, ranks);
    case Engine::kLocalFull: return run_local(w, kind, ranks);
    case Engine::kLocalMinibatch: return run_minibatch(w, kind, ranks);
  }
  return {};
}

// Attach the standard counters and the modeled time to a benchmark state.
inline void report(benchmark::State& state, const RunResult& r) {
  state.SetIterationTime(r.modeled_seconds);
  state.counters["comm_MB"] = r.comm_mbytes;
  state.counters["comm_s"] = r.comm_seconds;
  state.counters["compute_s"] = r.compute_seconds;
}

// Attach a registry histogram's tail quantiles as counters, so a traced
// bench run carries p50/p99/p999 per benchmark in the JSON report. No-op
// when the histogram is absent or empty (untraced run).
inline void attach_histogram_quantiles(benchmark::State& state,
                                       std::string_view hist_name) {
  const obs::Histogram* h =
      obs::MetricsRegistry::global().find_histogram(hist_name);
  if (h == nullptr || h->count() == 0) return;
  state.counters["p50_ns"] = static_cast<double>(h->p50());
  state.counters["p99_ns"] = static_cast<double>(h->p99());
  state.counters["p999_ns"] = static_cast<double>(h->p999());
}

// Attach a perf region's accumulated counters (cycles/instructions/IPC/
// cache miss rate) as benchmark counters. No-op without AGNN_PERF or when
// the syscall was unavailable.
inline void attach_perf_counters(benchmark::State& state,
                                 std::string_view region_name) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::string p = "perf." + std::string(region_name);
  const obs::Counter* cyc = reg.find_counter(p + ".cycles");
  if (cyc == nullptr || cyc->value() == 0) return;
  state.counters["cycles"] = static_cast<double>(cyc->value());
  if (const obs::Counter* ins = reg.find_counter(p + ".instructions")) {
    state.counters["instructions"] = static_cast<double>(ins->value());
  }
  if (const obs::Gauge* ipc = reg.find_gauge(p + ".ipc")) {
    state.counters["ipc"] = ipc->value();
  }
  if (const obs::Gauge* mr = reg.find_gauge(p + ".cache_miss_rate")) {
    state.counters["cache_miss_rate"] = mr->value();
  }
}

// ---- machine-readable JSON reports ----------------------------------------

// Context of this build/machine, stamped into every report. Git sha and
// flags come from CMake compile definitions (bench targets only, so a sha
// change doesn't rebuild the world); CPU model from /proc/cpuinfo.
inline obs::bench::BenchContext build_context() {
  obs::bench::BenchContext ctx;
#ifdef AGNN_GIT_SHA
  ctx.git_sha = AGNN_GIT_SHA;
#endif
#ifdef __VERSION__
  ctx.compiler = __VERSION__;
#endif
#ifdef AGNN_CXX_FLAGS
  ctx.cxx_flags = AGNN_CXX_FLAGS;
#endif
  ctx.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        ctx.cpu_model = line.substr(b);
      }
      break;
    }
  }
  ctx.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
#if defined(_OPENMP)
  ctx.omp_threads = omp_get_max_threads();
#else
  ctx.omp_threads = 1;
#endif
  ctx.perf_available = obs::perf::available();
  return ctx;
}

// Console output as usual, plus captures every per-repetition run so the
// JSON writer gets raw samples (google benchmark's own JSON has no schema
// guarantee across versions and no room for our context/histograms).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration) continue;  // skip aggregates
      if (r.error_occurred) continue;
      captured_.push_back(r);
    }
  }

  const std::vector<Run>& runs() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

inline obs::bench::BenchReport build_report(
    const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  obs::bench::BenchReport rep;
  rep.context = build_context();
  for (const auto& run : runs) {
    const std::string name = run.benchmark_name();
    obs::bench::BenchEntry* e = nullptr;
    for (auto& b : rep.benchmarks) {
      if (b.name == name) e = &b;
    }
    if (e == nullptr) {
      rep.benchmarks.emplace_back();
      e = &rep.benchmarks.back();
      e->name = name;
    }
    const double iters =
        run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
    e->samples_ns.push_back(run.real_accumulated_time / iters * 1e9);
    for (const auto& [k, c] : run.counters) {
      e->counters[k] = c.value;
    }
  }
  for (auto& b : rep.benchmarks) obs::bench::finalize(b);
  rep.histograms_json = obs::bench::histograms_snapshot_json();
  return rep;
}

// main() for every bench binary: standard google-benchmark flags plus
// `--json-out=<path>` writing the schema'd report after the run.
inline int bench_main(int argc, char** argv) {
  std::string json_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--json-out=", 0) == 0) {
      json_out = a.substr(std::string_view("--json-out=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_out.empty()) {
    const obs::bench::BenchReport rep = build_report(reporter.runs());
    if (!obs::bench::write_json_file(json_out, rep)) {
      std::fprintf(stderr, "bench: cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench: wrote %s (%zu benchmarks)\n",
                 json_out.c_str(), rep.benchmarks.size());
  }
  return 0;
}

}  // namespace agnn::bench

#define AGNN_BENCH_MAIN()                              \
  int main(int argc, char** argv) {                    \
    return ::agnn::bench::bench_main(argc, argv);      \
  }
