// The unified benchmark driver, mirroring the paper artifact's
// unified_single_bench.py / unified_distr_bench.py command-line interface:
//
//   ./build/examples/unified_bench -m VA -v 10000 -e 1000000
//   ./build/examples/unified_bench -m GAT -d kronecker -v 4096 -e 100000
//        --features 32 -l 3 --repeat 10 --warmup 2 -p 16
//   ./build/examples/unified_bench -m AGNN -f graph.bin --inference
//
// Options (artifact-compatible, plus -p/--ranks and --engine for the
// simulated cluster):
//   -m/--model {VA,GAT,AGNN,GCN}     model to run (default VA)
//   -v/--vertices N                  vertex count (rounded down to a power
//                                    of two for kronecker, as the artifact)
//   -e/--edges M                     edge count
//   -d/--dataset {uniform,kronecker} generator (default kronecker)
//   -f/--file PATH                   load binary COO instead of generating
//   --features K                     feature width (default 16)
//   -l/--layers L                    GNN layers (default 3)
//   --repeat R / --warmup W          timed / warm-up executions (10 / 2)
//   --inference                      inference only (no intermediates)
//   -s/--seed S                      RNG seed (default 0)
//   -p/--ranks P                     simulated ranks (default 1)
//   --engine {global,local}          formulation to execute (default global)
//
// With --engine global the distribution policy comes from AGNN_DIST
// (1d | 1.5d | 2d | 3d | auto; AGNN_DIST_DEPTH for 3d replication depth).
// The default "auto" picks 1.5D on perfect-square rank counts and 2D
// otherwise, so -p no longer has to be a square.
//   --trace                          also write the profiling repetition's
//                                    timeline as Chrome/Perfetto JSON
//                                    (AGNN_TRACE=1 works too)
//   --trace-out PATH                 trace output path (default trace.json)
//
// After the timed repetitions one extra *traced* repetition runs, and its
// per-collective measured-compute vs modeled-comm table is printed; rows
// whose ratio deviates more than 2x from the volume model are flagged.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/cli.hpp"
#include "core/model.hpp"
#include "dist/engine_factory.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/kronecker.hpp"
#include "obs/bench_report.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"

namespace {

using namespace agnn;

ModelKind parse_model(const std::string& s) {
  if (s == "VA") return ModelKind::kVA;
  if (s == "GAT") return ModelKind::kGAT;
  if (s == "AGNN") return ModelKind::kAGNN;
  if (s == "GCN") return ModelKind::kGCN;
  if (s == "GIN") return ModelKind::kGIN;
  AGNN_ASSERT(false, "unknown model: " + s + " (expected VA, GAT, AGNN, GCN, GIN)");
  return ModelKind::kVA;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double stddev(const std::vector<double>& v) {
  double mean = 0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double acc = 0;
  for (const double x : v) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const ModelKind kind = parse_model(args.get_string("-m", "--model", "VA"));
  const auto n_req = static_cast<index_t>(args.get_long("-v", "--vertices", 1024));
  const auto m_req = static_cast<index_t>(args.get_long("-e", "--edges", 10000));
  const std::string dataset = args.get_string("-d", "--dataset", "kronecker");
  const std::string file = args.get_string("-f", "--file", "");
  const auto k = static_cast<index_t>(args.get_long("--features", 16));
  const int layers = static_cast<int>(args.get_long("-l", "--layers", 3));
  const int repeat = static_cast<int>(args.get_long("--repeat", 10));
  const int warmup = static_cast<int>(args.get_long("--warmup", 2));
  const bool inference = args.get_flag("--inference");
  const auto seed = static_cast<std::uint64_t>(args.get_long("-s", "--seed", 0));
  const int ranks = static_cast<int>(args.get_long("-p", "--ranks", 1));
  const std::string engine = args.get_string("--engine", "global");

  // Build the graph exactly as the artifact does.
  graph::EdgeList el;
  if (!file.empty()) {
    el = graph::read_edge_list(file);
  } else if (dataset == "uniform") {
    el = graph::generate_erdos_renyi_m(n_req, m_req, seed + 1);
  } else if (dataset == "kronecker") {
    // The artifact rounds the vertex count down to a power of two.
    int scale = 0;
    while ((index_t(1) << (scale + 1)) <= n_req) ++scale;
    el = graph::generate_kronecker(
        {.scale = scale, .edges = m_req, .seed = seed + 1});
  } else {
    AGNN_ASSERT(false, "unknown dataset: " + dataset);
  }
  graph::BuildOptions opt;
  opt.add_self_loops = (kind == ModelKind::kGAT || kind == ModelKind::kGCN);
  const auto g = graph::build_graph<float>(el, opt);
  const CsrMatrix<float> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;

  Rng rng(seed + 2);
  DenseMatrix<float> x(g.num_vertices(), k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(g.num_vertices()));
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(k)));
  }

  // Resolve (and validate) the distribution grid up front so a bad
  // AGNN_DIST / rank-count combination fails before any rank is spawned.
  const dist::GridShape grid = dist::grid_from_env(ranks);

  std::printf("model=%s engine=%s task=%s n=%lld m=%lld features=%lld layers=%d "
              "ranks=%d dist=%s\n",
              to_string(kind), engine.c_str(),
              inference ? "inference" : "training",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()), static_cast<long long>(k),
              layers, ranks, grid.describe().c_str());

  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.seed = seed + 3;

  const comm::CostModel cost{.alpha = 1.5e-6, .beta = 1.0 / 10.0e9};
  const auto run_once = [&]() {
    return comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
      GnnModel<float> model(cfg);
      if (engine == "global") {
        const auto eng = dist::make_dist_engine(grid.policy, world, adj, model,
                                                grid.depth);
        comm::reset_all_stats(world);
        if (inference) {
          eng->infer(x);
        } else {
          SgdOptimizer<float> sgd(0.01f);
          eng->train_step(x, labels, sgd);
        }
      } else {
        baseline::DistLocalEngine<float> eng(world, adj, model);
        comm::reset_all_stats(world);
        if (inference) {
          eng.forward(x, nullptr);
        } else {
          SgdOptimizer<float> sgd(0.01f);
          eng.train_step(x, labels, sgd);
        }
      }
    });
  };

  std::vector<double> times;
  double comm_mb = 0;
  for (int r = 0; r < warmup + repeat; ++r) {
    const auto stats = run_once();
    if (r >= warmup) {
      times.push_back(cost.total_time(stats));
      comm_mb = static_cast<double>(comm::max_bytes_sent(stats)) / 1e6;
    }
  }

  std::printf("modeled step time: median %.3f ms, stddev %.3f ms over %d runs\n",
              1e3 * median(times), 1e3 * stddev(times), repeat);
  std::printf("max per-rank communication: %.3f MB\n", comm_mb);

  // One extra repetition with the tracer on: join the measured kernel time
  // between collectives (per rank, max-reduced) against the alpha-beta model
  // of each collective, and flag supersteps off by more than 2x.
  obs::Tracer::instance().clear();
  obs::Tracer::set_enabled(true);
  run_once();
  obs::Tracer::set_enabled(false);
  const auto events = obs::Tracer::instance().collect();

  const obs::TraceReport report(cost, 2.0);
  const auto rows = report.build(events);
  std::printf("\nper-collective compute vs modeled comm (1 traced %s):\n",
              inference ? "inference" : "training step");
  std::ostringstream table;
  const std::size_t flagged = report.print(table, rows);
  std::fputs(table.str().c_str(), stdout);
  if (flagged > 0) {
    std::printf("%zu collective(s) deviate >2x from the volume model's "
                "compute/comm balance\n",
                flagged);
  }
  // Bridge the deviation flags into named gauges so dashboards can alert on
  // trace_report.flagged_rows without parsing the table.
  obs::TraceReport::export_flags(rows);

  // Per-kernel roofline attribution: byte-tagged kernel spans joined with
  // the perf.<kernel>.* registry entries (IPC/cache columns need AGNN_PERF).
  const auto kernel_rows = obs::TraceReport::build_kernels(events);
  if (!kernel_rows.empty()) {
    std::printf("\nper-kernel traffic attribution (1 traced %s):\n",
                inference ? "inference" : "training step");
    std::ostringstream ktable;
    obs::TraceReport::print_kernels(ktable, kernel_rows);
    std::fputs(ktable.str().c_str(), stdout);
    if (!obs::perf::available()) {
      std::printf("perf counters: unavailable (set AGNN_PERF=1; needs "
                  "perf_event_open) — IPC/cache columns omitted\n");
    }
  }

  if (args.get_flag("--trace") || obs::Tracer::env_wants_trace()) {
    const std::string path = args.get_string("--trace-out", "trace.json");
    if (obs::Tracer::instance().write_chrome_json_file(path)) {
      std::printf("wrote %s — open in https://ui.perfetto.dev\n", path.c_str());
    }
  }

  // Machine-readable report (same schema as the bench/ binaries).
  const std::string json_out = args.get_string("--json-out", "");
  if (!json_out.empty()) {
    obs::bench::BenchReport rep;
#ifdef __VERSION__
    rep.context.compiler = __VERSION__;
#endif
    rep.context.cpu_model = "unknown";
    rep.context.perf_available = obs::perf::available();
    obs::bench::BenchEntry entry;
    std::ostringstream name;
    name << "unified/" << to_string(kind) << "/" << engine << "/p" << ranks
         << (inference ? "/inference" : "/training");
    entry.name = name.str();
    for (const double t : times) entry.samples_ns.push_back(t * 1e9);
    obs::bench::finalize(entry);
    entry.counters["comm_MB"] = comm_mb;
    rep.benchmarks.push_back(std::move(entry));
    rep.histograms_json = obs::bench::histograms_snapshot_json();
    if (obs::bench::write_json_file(json_out, rep)) {
      std::printf("wrote %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  return 0;
}
