// train-kron: the sequential path with 4 OpenMP threads. Kronecker scale 14
// (16 n edge samples, symmetrized, self-loops), k = 64, 3 layers, float32.
// One round runs one Trainer::step and one GnnModel::infer for each of GAT,
// VA, AGNN, GCN (on the symmetrically normalized adjacency) and GIN.
#include <cmath>
#include <memory>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using agnn::CsrMatrix;
using agnn::DenseMatrix;
using agnn::index_t;
using agnn::ModelKind;
using agnn::obs::SpanCategory;
using agnn::obs::SpanScope;
using real_t = float;

constexpr int kScale = 14;
constexpr index_t kK = 64;
constexpr int kLayers = 3;
constexpr int kSetupReps = 3;
// Fused inference against the unfused training-mode forward, float32.
constexpr double kInferTolerance = 1e-4;

struct KindSpec {
  ModelKind kind;
  const char* name;
  const char* step_span;
  const char* infer_span;
};

constexpr KindSpec kKinds[] = {
    {ModelKind::kGAT, "GAT", "bench.core.step.GAT", "bench.core.infer.GAT"},
    {ModelKind::kVA, "VA", "bench.core.step.VA", "bench.core.infer.VA"},
    {ModelKind::kAGNN, "AGNN", "bench.core.step.AGNN", "bench.core.infer.AGNN"},
    {ModelKind::kGCN, "GCN", "bench.core.step.GCN", "bench.core.infer.GCN"},
    {ModelKind::kGIN, "GIN", "bench.core.step.GIN", "bench.core.infer.GIN"},
};
constexpr std::size_t kNumKinds = std::size(kKinds);

struct Inputs {
  CsrMatrix<real_t> adj, adj_t, adj_gcn, adj_gcn_t;
  DenseMatrix<real_t> x;
  std::vector<index_t> labels;
};

struct KindRun {
  const KindSpec* spec = nullptr;
  std::unique_ptr<agnn::GnnModel<real_t>> model;
  std::unique_ptr<agnn::Trainer<real_t>> trainer;
  agnn::Workspace<real_t> infer_ws;
  DenseMatrix<real_t> h;
  const CsrMatrix<real_t>* adj = nullptr;
  const CsrMatrix<real_t>* adj_t = nullptr;
};

struct Setup {
  std::unique_ptr<Inputs> in;
  std::vector<std::unique_ptr<KindRun>> runs;
};

bool all_finite(const DenseMatrix<real_t>& m) {
  for (index_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

// max |a - b| / max |b|: fused inference against the unfused forward.
double relative_error(const DenseMatrix<real_t>& a, const DenseMatrix<real_t>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double diff = 0, scale = 0;
  for (index_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
    scale = std::max(scale, std::fabs(static_cast<double>(b.data()[i])));
  }
  return scale > 0 ? diff / scale : diff;
}

// Output check: GnnModel::infer (fused) agrees with GnnModel::forward
// (training mode, unfused) on the current weights.
bool check_infer_matches_forward(KindRun& r, const Inputs& in, double& err) {
  r.model->infer(*r.adj, in.x, r.infer_ws, r.h);
  std::vector<agnn::LayerCache<real_t>> caches;
  agnn::Workspace<real_t> ws;
  DenseMatrix<real_t> h_fwd;
  r.model->forward(*r.adj, in.x, caches, ws, h_fwd);
  err = relative_error(r.h, h_fwd);
  return all_finite(r.h) && err <= kInferTolerance;
}

Setup set_up(std::uint64_t seed, double& build_s) {
  Setup s;
  s.in = std::make_unique<Inputs>();
  Inputs& in = *s.in;
  const Clock::time_point t0 = Clock::now();
  {
    const SpanScope span("bench.graph.build", SpanCategory::kPhase);
    agnn::graph::KroneckerParams p;
    p.scale = kScale;
    p.edges = index_t(16) << kScale;
    p.seed = derive_seed(seed, 1);
    agnn::graph::BuildOptions opt;
    opt.add_self_loops = true;
    in.adj = agnn::graph::build_graph<real_t>(agnn::graph::generate_kronecker(p), opt).adj;
    in.adj_t = in.adj.transposed();
    in.adj_gcn = agnn::graph::sym_normalize(in.adj);
    in.adj_gcn_t = in.adj_gcn.transposed();
  }
  build_s = seconds_since(t0);
  const index_t n = in.adj.rows();
  agnn::Rng xr(derive_seed(seed, 2));
  in.x = DenseMatrix<real_t>(n, kK);
  in.x.fill_uniform(xr, -kFeatureScale, kFeatureScale);
  agnn::Rng lr(derive_seed(seed, 3));
  in.labels.resize(static_cast<std::size_t>(n));
  for (auto& l : in.labels) l = static_cast<index_t>(lr.next_bounded(kK));

  for (std::size_t i = 0; i < kNumKinds; ++i) {
    auto r = std::make_unique<KindRun>();
    r->spec = &kKinds[i];
    agnn::GnnConfig cfg;
    cfg.kind = kKinds[i].kind;
    cfg.in_features = kK;
    cfg.layer_widths.assign(kLayers, kK);
    cfg.seed = derive_seed(seed, 10 + i);
    {
      const SpanScope span("bench.core.construct", SpanCategory::kPhase);
      r->model = std::make_unique<agnn::GnnModel<real_t>>(cfg);
      r->trainer = std::make_unique<agnn::Trainer<real_t>>(
          *r->model, std::make_unique<agnn::AdamOptimizer<real_t>>(kLearningRate));
    }
    const bool gcn = cfg.kind == ModelKind::kGCN;
    r->adj = gcn ? &in.adj_gcn : &in.adj;
    r->adj_t = gcn ? &in.adj_gcn_t : &in.adj_t;
    s.runs.push_back(std::move(r));
  }
  return s;
}

struct RoundTimes {
  double train = 0, infer = 0;
  double kind_train[kNumKinds] = {}, kind_infer[kNumKinds] = {};
};

RoundTimes run_round(Setup& s, Report& report) {
  RoundTimes t;
  const Inputs& in = *s.in;
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    KindRun& r = *s.runs[i];
    Clock::time_point t0 = Clock::now();
    real_t loss;
    {
      const SpanScope span(r.spec->step_span, SpanCategory::kPhase);
      loss = r.trainer->step(*r.adj, *r.adj_t, in.x, in.labels).loss;
    }
    t.kind_train[i] = seconds_since(t0);
    t.train += t.kind_train[i];
    report.fails.add(std::isfinite(loss));
    t0 = Clock::now();
    {
      const SpanScope span(r.spec->infer_span, SpanCategory::kPhase);
      r.model->infer(*r.adj, in.x, r.infer_ws, r.h);
    }
    t.kind_infer[i] = seconds_since(t0);
    t.infer += t.kind_infer[i];
    report.fails.add(all_finite(r.h));
  }
  return t;
}

void check_all(Setup& s, Report& report, const char* when) {
  for (auto& r : s.runs) {
    double err = 0;
    const bool ok = check_infer_matches_forward(*r, *s.in, err);
    report.fails.add(ok);
    if (!ok) {
      report.checks_ok = false;
      std::fprintf(stderr, "check failed (%s): %s infer vs forward rel err %.3g\n",
                   when, r->spec->name, err);
    }
  }
}

agnn::WorkspaceStats workspace_totals(const Setup& s) {
  agnn::WorkspaceStats t;
  for (const auto& r : s.runs) {
    for (const agnn::WorkspaceStats* w :
         {&r->trainer->workspace_stats(), &r->infer_ws.stats()}) {
      t.acquires += w->acquires;
      t.pool_hits += w->pool_hits;
      t.pool_misses += w->pool_misses;
    }
  }
  return t;
}

}  // namespace

void run_train_kron(const Args& args, Report& report) {
  std::vector<double> setup_s, build_s;
  std::vector<agnn::obs::TraceEvent> setup_events;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // the previous repetition's objects go first
    agnn::obs::Tracer::set_enabled(args.trace);
    const Clock::time_point t0 = Clock::now();
    double b = 0;
    s = set_up(args.seed, b);
    // Warm-up: one step and one inference per kind, so the workspaces and
    // the schedule caches are filled before timing.
    run_round(s, report);
    setup_s.push_back(seconds_since(t0));
    build_s.push_back(b);
    agnn::obs::Tracer::set_enabled(false);
    if (args.trace) {
      auto ev = drain_events();
      setup_events.insert(setup_events.end(), ev.begin(), ev.end());
    }
  }
  check_all(s, report, "after warm-up");

  // Untraced rounds; with --trace 1 they are the baseline of the overhead
  // and the traced rounds follow.
  const double untraced_budget = args.trace ? 0.4 * args.seconds : args.seconds;
  std::vector<double> train, infer, round_total;
  std::vector<std::vector<double>> kind_train(kNumKinds), kind_infer(kNumKinds);
  Clock::time_point t0 = Clock::now();
  while (train.size() < 3 || seconds_since(t0) < untraced_budget) {
    const RoundTimes t = run_round(s, report);
    train.push_back(t.train);
    infer.push_back(t.infer);
    round_total.push_back(t.train + t.infer);
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      kind_train[k].push_back(t.kind_train[k]);
      kind_infer[k].push_back(t.kind_infer[k]);
    }
  }

  if (!args.trace) {
    check_all(s, report, "after measurement");
    // The sum over the kinds of each kind's median (stats.hpp); the count
    // and tail percentile are those of the round sums.
    Summary work = summarize(train), inf = summarize(infer);
    work.median = sum_of_medians(kind_train);
    inf.median = sum_of_medians(kind_infer);
    report.set_timing("work_s", work, 1.0, "s");
    report.set_timing("infer_s", inf, 1.0, "s");
    report.set_timing("setup_s", summarize(setup_s), 1.0, "s");
    return;
  }

  const agnn::WorkspaceStats ws0 = workspace_totals(s);
  std::vector<double> traced_total;
  agnn::obs::Tracer::set_enabled(true);
  t0 = Clock::now();
  while (traced_total.size() < 3 || seconds_since(t0) < args.seconds - untraced_budget) {
    const RoundTimes t = run_round(s, report);
    traced_total.push_back(t.train + t.infer);
  }
  agnn::obs::Tracer::set_enabled(false);
  const agnn::WorkspaceStats ws1 = workspace_totals(s);
  std::vector<agnn::obs::TraceEvent> events = drain_events();
  check_all(s, report, "after measurement");

  const SpanTable spans = fold_spans(events);
  const double rounds = static_cast<double>(traced_total.size());
  std::map<std::string, double> group_s;
  double kernel_self = 0, calls = 0, bytes = 0, bench_core = 0;
  auto total_of = [&](const std::string& name) {
    const auto it = spans.find({-1, name});
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  for (const auto& [key, agg] : spans) {
    if (agg.category != SpanCategory::kKernel) continue;
    kernel_self += agg.self_s;
    calls += static_cast<double>(agg.count);
    bytes += static_cast<double>(agg.bytes);
    const std::string g = tensor_group(key.second);
    if (!g.empty()) group_s[g] += agg.self_s;
  }
  for (const char* g : {"spmm", "sddmm", "psi", "softmax", "rowcol", "fused"}) {
    report.set(std::string("tensor.") + g + "_s", group_s[g] / rounds, "s", traced_total.size());
  }
  report.set("tensor.calls", calls / rounds, "count");
  report.set("tensor.bytes", bytes / rounds, "B");
  report.set("tensor.gbps", kernel_self > 0 ? bytes / kernel_self * 1e-9 : 0.0, "GB/s");
  for (const KindSpec& k : kKinds) {
    const double step = total_of(k.step_span), inf = total_of(k.infer_span);
    bench_core += step + inf;
    report.set(std::string("core.") + k.name + ".epoch_s", step / rounds, "s");
    report.set(std::string("core.") + k.name + ".infer_s", inf / rounds, "s");
  }
  const double fwd = total_of("model.forward"), bwd = total_of("model.backward");
  report.set("core.forward_s", fwd / rounds, "s");
  report.set("core.backward_s", bwd / rounds, "s");
  report.set("core.loss_update_s", (total_of("trainer.step") - fwd - bwd) / rounds, "s");
  report.set("core.infer_s", total_of("model.infer") / rounds, "s");
  report.set("core.unattributed_frac",
             bench_core > 0 ? 1.0 - kernel_self / bench_core : 0.0, "ratio");
  const double acquires = static_cast<double>(ws1.acquires - ws0.acquires);
  report.set("core.workspace.hit_rate",
             acquires > 0 ? static_cast<double>(ws1.pool_hits - ws0.pool_hits) / acquires : 1.0,
             "ratio");
  report.set("core.workspace.misses",
             static_cast<double>(ws1.pool_misses - ws0.pool_misses), "count");
  report.set("graph.build_s", median(build_s), "s", build_s.size());
  report.set("obs.trace_overhead", median(traced_total) / median(round_total) - 1.0, "ratio");

  if (!args.trace_out.empty()) {
    setup_events.insert(setup_events.end(), events.begin(), events.end());
    if (!write_trace(args.trace_out, setup_events)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace e2ebench
