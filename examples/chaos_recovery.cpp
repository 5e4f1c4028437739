// Chaos-testing quickstart: train a 4-rank distributed GAT while injecting
// deterministic faults (straggler delay + mid-training rank abort), recover
// automatically from checkpoints, and verify the recovered run reproduces
// the fault-free final loss.
//
//   ./build/examples/chaos_recovery
//   ./build/examples/chaos_recovery --faults "delay@r0:s6:300us;abort@r2:s40"
//   AGNN_FAULTS="abort@r1:s30" ./build/examples/chaos_recovery
//
// The fault spec is printed on every run, so any failure replays exactly:
// pass the same spec (and the workload is fixed-seed) to reproduce the same
// fault firing points, recovery path, and trace. Set AGNN_TRACE=1 to record
// the timeline — fault instants land in the "fault" category — into
// chaos_trace.json (open in ui.perfetto.dev).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault_injection.hpp"
#include "core/model.hpp"
#include "core/serialization.hpp"
#include "dist/dist_engine.hpp"
#include "dist/recovery.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "obs/trace.hpp"

namespace {

using namespace agnn;

constexpr int kRanks = 4;
constexpr int kEpochs = 10;

struct Outcome {
  std::vector<double> losses;
  int restores = 0;
  int checkpoints = 0;
  std::uint64_t supersteps = 0;
};

GnnConfig gat_config(index_t k) {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, 4};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 20260805;
  return cfg;
}

Outcome run_training(const CsrMatrix<double>& adj, const DenseMatrix<double>& x,
                     std::span<const index_t> labels, index_t k,
                     const comm::FaultPlan& plan,
                     const std::string& checkpoint_path) {
  comm::RunOptions ropts;
  ropts.faults = plan;
  // Finite collective deadline only under injected faults: it is what turns
  // a dead rank into a structured CommError instead of a hung barrier.
  if (!plan.empty()) ropts.timeout = std::chrono::milliseconds(500);

  Outcome out;
  std::mutex mu;
  const auto stats =
      comm::SpmdRuntime::run(kRanks, ropts, [&](comm::Communicator& world) {
        GnnModel<double> model(gat_config(k));
        dist::DistEngine<double> engine(world, adj, model, dist::DistPolicy::k1_5D);
        SgdOptimizer<double> opt(0.05, 0.9);
        dist::RecoveryOptions opts;
        opts.checkpoint_every = 2;
        opts.checkpoint_path = checkpoint_path;
        const auto report = dist::train_with_recovery(
            world, engine, model, opt, x, labels, kEpochs, {}, opts);
        if (world.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          out.losses.assign(report.losses.begin(), report.losses.end());
          out.restores = report.restores;
          out.checkpoints = report.checkpoints;
        }
      });
  out.supersteps = comm::max_supersteps(stats);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::TraceSession trace("chaos_trace.json");  // active iff AGNN_TRACE=1
  const std::string ckpt_path =
      (std::filesystem::temp_directory_path() / "agnn_chaos_ckpt.bin").string();

  // Fixed-seed workload: a small Kronecker graph and a 2-layer GAT.
  const index_t k = 8;
  graph::KroneckerParams params;
  params.scale = 7;  // n = 128
  params.edges = 1200;
  params.seed = 11;
  graph::BuildOptions bopt;
  bopt.add_self_loops = true;
  const auto g =
      graph::build_graph<double>(graph::generate_kronecker(params), bopt);
  Rng rng(5);
  DenseMatrix<double> x(g.num_vertices(), k);
  x.fill_uniform(rng, -1.0, 1.0);
  std::vector<index_t> labels(static_cast<std::size_t>(g.num_vertices()));
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(4));

  // 1. Fault-free baseline (explicit RunOptions{} ignores AGNN_FAULTS).
  const auto clean =
      run_training(g.adj, x, labels, k, comm::FaultPlan{}, std::string{});
  std::printf("baseline: %d epochs, %llu supersteps, final loss %.12f\n",
              kEpochs, static_cast<unsigned long long>(clean.supersteps),
              clean.losses.back());

  // 2. Chaos run: --faults beats AGNN_FAULTS beats a built-in default that
  //    places a straggler early and an abort mid-training.
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      spec = argv[++i];
    }
  }
  if (spec.empty()) {
    if (const char* env = std::getenv("AGNN_FAULTS")) spec = env;
  }
  if (spec.empty()) {
    const auto mid = clean.supersteps / 2;
    spec = "delay@r0:s6:300us;abort@r2:s" + std::to_string(mid);
  }
  const auto plan = comm::FaultPlan::parse(spec);
  std::printf("chaos:    injecting \"%s\" (replay with --faults)\n",
              plan.spec().c_str());
  const auto chaos = run_training(g.adj, x, labels, k, plan, ckpt_path);
  std::printf("chaos:    %d restore%s, %d checkpoint%s, final loss %.12f\n",
              chaos.restores, chaos.restores == 1 ? "" : "s", chaos.checkpoints,
              chaos.checkpoints == 1 ? "" : "s", chaos.losses.back());

  // 3. The recovered run must land on the fault-free result.
  bool ok = chaos.losses.size() == clean.losses.size();
  for (std::size_t e = 0; ok && e < clean.losses.size(); ++e) {
    ok = std::abs(chaos.losses[e] - clean.losses[e]) <= 1e-6;
  }
  std::printf("verdict:  recovered losses %s fault-free baseline (tol 1e-6)\n",
              ok ? "match" : "DIVERGE from");

  // 4. The persisted rank-0 checkpoint reloads and carries optimizer state.
  bool ckpt_ok = false;
  if (std::filesystem::exists(ckpt_path)) {
    GnnModel<double> reloaded(gat_config(k));
    std::vector<double> opt_state;
    const auto meta = load_checkpoint(ckpt_path, reloaded, &opt_state);
    ckpt_ok = meta.epoch > 0 && !opt_state.empty();
    std::printf("ckpt:     %s @ epoch %lld, %zu optimizer slots %s\n",
                ckpt_path.c_str(), static_cast<long long>(meta.epoch),
                opt_state.size(), ckpt_ok ? "[ok]" : "[BAD]");
    std::filesystem::remove(ckpt_path);
  } else {
    std::printf("ckpt:     %s missing [BAD]\n", ckpt_path.c_str());
  }

  return ok && ckpt_ok ? 0 : 1;
}
