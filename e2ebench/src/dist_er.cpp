// dist-er: make_dist_engine inside SpmdRuntime::run(4, ...), one OpenMP
// thread per rank. Erdős–Rényi n = 2^13 with 16 n edges (symmetrized,
// self-loops), k = 64, 3 layers. One round runs one train_step and one infer
// for each policy {1D, 1.5D, 2D, 3D} x the five model kinds.
#include <omp.h>

#include <cmath>
#include <memory>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/engine_factory.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using agnn::CsrMatrix;
using agnn::DenseMatrix;
using agnn::index_t;
using agnn::ModelKind;
using agnn::dist::DistPolicy;
using agnn::obs::SpanCategory;
using agnn::obs::SpanScope;
using real_t = float;

constexpr index_t kN = index_t(1) << 13;
constexpr index_t kK = 64;
constexpr int kLayers = 3;
constexpr int kRanks = 4;
constexpr int kSetupReps = 3;
constexpr double kTolerance = 1e-4;  // engine vs sequential, float32

constexpr ModelKind kKinds[] = {ModelKind::kGAT, ModelKind::kVA, ModelKind::kAGNN,
                                ModelKind::kGCN, ModelKind::kGIN};
constexpr std::size_t kNumKinds = std::size(kKinds);
constexpr DistPolicy kPolicies[] = {DistPolicy::k1D, DistPolicy::k1_5D,
                                    DistPolicy::k2D, DistPolicy::k3D};
constexpr const char* kPolicyNames[] = {"1d", "15d", "2d", "3d"};
constexpr std::size_t kNumPolicies = std::size(kPolicies);
constexpr std::size_t kCombos = kNumPolicies * kNumKinds;

// The same α–β parameters as bench_common's cost_model() (Cray Aries).
constexpr AlphaBeta kCost{};

struct Inputs {
  CsrMatrix<real_t> adj, adj_gcn;
  DenseMatrix<real_t> x;
  std::vector<index_t> labels;

  const CsrMatrix<real_t>& adj_for(ModelKind k) const {
    return k == ModelKind::kGCN ? adj_gcn : adj;
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  {
    const SpanScope span("bench.graph.build", SpanCategory::kPhase);
    agnn::graph::BuildOptions opt;
    opt.add_self_loops = true;
    in.adj = agnn::graph::build_graph<real_t>(
                 agnn::graph::generate_erdos_renyi_m(kN, 16 * kN, derive_seed(seed, 1)),
                 opt)
                 .adj;
    in.adj_gcn = agnn::graph::sym_normalize(in.adj);
  }
  agnn::Rng xr(derive_seed(seed, 2));
  in.x = DenseMatrix<real_t>(in.adj.rows(), kK);
  in.x.fill_uniform(xr, -kFeatureScale, kFeatureScale);
  agnn::Rng lr(derive_seed(seed, 3));
  in.labels.resize(static_cast<std::size_t>(in.adj.rows()));
  for (auto& l : in.labels) l = static_cast<index_t>(lr.next_bounded(kK));
  return in;
}

agnn::GnnConfig model_config(ModelKind kind, std::uint64_t seed, std::size_t i) {
  agnn::GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = kK;
  cfg.layer_widths.assign(kLayers, kK);
  cfg.seed = derive_seed(seed, 10 + i);
  return cfg;
}

// Sequential reference per kind: the inference output and the first-step
// loss of GnnModel with the weights every engine starts from.
struct Reference {
  DenseMatrix<real_t> out[kNumKinds];
  real_t loss[kNumKinds] = {};
};

void make_reference(const Inputs& in, std::uint64_t seed, Reference& ref) {
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    agnn::GnnModel<real_t> model(model_config(kKinds[i], seed, i));
    const CsrMatrix<real_t>& a = in.adj_for(kKinds[i]);
    ref.out[i] = model.infer(a, in.x);
    agnn::Trainer<real_t> trainer(model, std::make_unique<agnn::AdamOptimizer<real_t>>(kLearningRate));
    ref.loss[i] = trainer.step(a, a.transposed(), in.x, in.labels).loss;
  }
}

double relative_error(const DenseMatrix<real_t>& a, const DenseMatrix<real_t>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double diff = 0, scale = 0;
  for (index_t i = 0; i < a.size(); ++i) {
    const double av = a.data()[i];
    if (!std::isfinite(av)) return INFINITY;
    diff = std::max(diff, std::fabs(av - b.data()[i]));
    scale = std::max(scale, std::fabs(static_cast<double>(b.data()[i])));
  }
  return scale > 0 ? diff / scale : diff;
}

// What one rank was charged during one step, read on that rank.
struct RankDelta {
  RankStep cost;
  std::uint64_t messages = 0;
  double wait_s = 0;
};

struct StepSlot {
  RankDelta rank[kRanks];
  double wall_s = 0;
  real_t loss = 0;
  bool ok = true;
};

struct RoundAgg {
  double train_wall = 0, infer_wall = 0, modeled = 0;
  double compute_max = 0, compute_mean = 0, comm_modeled = 0, wait_max = 0;
  double bytes = 0, messages = 0, supersteps = 0;
  double pol_train[kNumPolicies] = {}, pol_infer[kNumPolicies] = {};
  double pol_bytes[kNumPolicies] = {};
  bool traced = false;
};

enum class Next { kRound, kTracedRound, kStop };

// State shared by the rank threads. Each rank writes only its own slot
// entries; rank 0 reads them after the barrier that ends the step.
struct Shared {
  const Args* args = nullptr;
  const Reference* ref = nullptr;
  Report* report = nullptr;
  std::unique_ptr<Inputs> in;
  StepSlot train[kCombos], infer[kCombos];
  std::vector<RoundAgg> rounds;
  // Per engine: step and inference times of the untraced rounds.
  std::vector<std::vector<double>> train_s = std::vector<std::vector<double>>(kCombos);
  std::vector<std::vector<double>> infer_s = std::vector<std::vector<double>>(kCombos);
  std::vector<double> setup_s, engine_s, build_s;
  std::vector<agnn::obs::TraceEvent> setup_events;
  Next next = Next::kRound;
};

struct Combo {
  std::unique_ptr<agnn::GnnModel<real_t>> model;
  std::unique_ptr<agnn::dist::IDistEngine<real_t>> engine;
  std::unique_ptr<agnn::AdamOptimizer<real_t>> opt;
};

RankDelta delta(const agnn::comm::VolumeSnapshot& a, const agnn::comm::VolumeSnapshot& b) {
  RankDelta d;
  d.cost.compute_s = b.compute_seconds - a.compute_seconds;
  d.cost.bytes = b.bytes_sent - a.bytes_sent;
  d.cost.supersteps = b.supersteps - a.supersteps;
  d.messages = b.messages - a.messages;
  d.wait_s = b.wait_seconds - a.wait_seconds;
  return d;
}

// One step timed from barrier to barrier on rank 0; each rank records what
// it was charged between the barriers.
template <typename Fn>
void timed_step(agnn::comm::Communicator& world, StepSlot& slot, Fn&& fn) {
  world.barrier();
  const Clock::time_point t0 = Clock::now();
  const auto s0 = agnn::comm::snapshot(world.stats());
  fn();
  const auto s1 = agnn::comm::snapshot(world.stats());
  slot.rank[world.rank()] = delta(s0, s1);
  world.barrier();
  if (world.rank() == 0) slot.wall_s = seconds_since(t0);
}

void rank_body(agnn::comm::Communicator& world, Shared& sh) {
  omp_set_num_threads(1);
  const int me = world.rank();
  const std::uint64_t seed = sh.args->seed;
  std::vector<Combo> combos;

  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.barrier();
    combos.clear();
    world.barrier();
    Clock::time_point t0 = Clock::now();
    if (me == 0) {
      agnn::obs::Tracer::set_enabled(sh.args->trace);
      sh.in = std::make_unique<Inputs>(make_inputs(seed));
      sh.build_s.push_back(seconds_since(t0));
    }
    world.barrier();
    const Inputs& in = *sh.in;
    const Clock::time_point tc = Clock::now();
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      for (std::size_t k = 0; k < kNumKinds; ++k) {
        const SpanScope span("bench.dist.make_engine", SpanCategory::kPhase);
        Combo c;
        c.model = std::make_unique<agnn::GnnModel<real_t>>(model_config(kKinds[k], seed, k));
        c.engine = agnn::dist::make_dist_engine(kPolicies[p], world,
                                                in.adj_for(kKinds[k]), *c.model);
        c.opt = std::make_unique<agnn::AdamOptimizer<real_t>>(kLearningRate);
        combos.push_back(std::move(c));
      }
    }
    world.barrier();
    if (me == 0) sh.engine_s.push_back(seconds_since(tc));
    // Warm-up and output checks: the first inference and the first-step
    // loss of fresh engines against the sequential model.
    for (std::size_t c = 0; c < kCombos; ++c) {
      const std::size_t k = c % kNumKinds;
      const DenseMatrix<real_t> out = combos[c].engine->infer(in.x);
      const real_t loss = combos[c].engine->train_step(in.x, in.labels, *combos[c].opt).loss;
      if (me != 0) continue;
      const double err = relative_error(out, sh.ref->out[k]);
      const double lerr = std::fabs(static_cast<double>(loss) - sh.ref->loss[k]) /
                          std::max(1e-30, std::fabs(static_cast<double>(sh.ref->loss[k])));
      const bool ok = err <= kTolerance && std::isfinite(loss) && lerr <= kTolerance;
      sh.report->fails.add(ok);
      if (!ok) {
        sh.report->checks_ok = false;
        std::fprintf(stderr,
                     "check failed: policy %s kind %d: infer rel err %.3g, "
                     "first-step loss %.9g vs sequential %.9g\n",
                     kPolicyNames[c / kNumKinds], static_cast<int>(kKinds[k]), err,
                     static_cast<double>(loss), static_cast<double>(sh.ref->loss[k]));
      }
    }
    world.barrier();
    if (me == 0) {
      sh.setup_s.push_back(seconds_since(t0));
      agnn::obs::Tracer::set_enabled(false);
      if (sh.args->trace) {
        auto ev = drain_events();
        sh.setup_events.insert(sh.setup_events.end(), ev.begin(), ev.end());
      }
    }
  }

  const Inputs& in = *sh.in;
  const double seconds = sh.args->seconds;
  const double untraced_budget = sh.args->trace ? 0.4 * seconds : seconds;
  const Clock::time_point start = Clock::now();
  Clock::time_point traced_start{};
  for (;;) {
    for (std::size_t c = 0; c < kCombos; ++c) {
      auto& e = *combos[c].engine;
      timed_step(world, sh.train[c], [&] {
        const SpanScope span("bench.dist.train_step", SpanCategory::kPhase);
        const real_t loss = e.train_step(in.x, in.labels, *combos[c].opt).loss;
        if (me == 0) sh.train[c].loss = loss;  // the same on every rank
      });
      timed_step(world, sh.infer[c], [&] {
        const SpanScope span("bench.dist.infer", SpanCategory::kPhase);
        const DenseMatrix<real_t> out = e.infer(in.x);
        if (me == 0) {
          bool finite = true;
          for (index_t i = 0; i < out.size() && finite; ++i) finite = std::isfinite(out.data()[i]);
          sh.infer[c].ok = finite;
        }
      });
    }
    world.barrier();
    if (me == 0) {
      RoundAgg r;
      r.traced = agnn::obs::Tracer::enabled();
      for (std::size_t c = 0; c < kCombos; ++c) {
        const std::size_t p = c / kNumKinds;
        for (StepSlot* s : {&sh.train[c], &sh.infer[c]}) {
          const bool is_train = s == &sh.train[c];
          sh.report->fails.add(is_train ? std::isfinite(s->loss) : s->ok);
          double cmax = 0, csum = 0, wmax = 0, msg = 0, steps = 0, bytes = 0;
          RankStep ranks[kRanks];
          for (int q = 0; q < kRanks; ++q) {
            const RankDelta& d = s->rank[q];
            ranks[q] = d.cost;
            cmax = std::max(cmax, d.cost.compute_s);
            csum += d.cost.compute_s;
            wmax = std::max(wmax, d.wait_s);
            bytes = std::max(bytes, static_cast<double>(d.cost.bytes));
            msg = std::max(msg, static_cast<double>(d.messages));
            steps = std::max(steps, static_cast<double>(d.cost.supersteps));
          }
          r.bytes += bytes;
          r.messages += msg;
          r.supersteps += steps;
          r.wait_max += wmax;
          r.pol_bytes[p] += bytes;
          if (!r.traced) (is_train ? sh.train_s : sh.infer_s)[c].push_back(s->wall_s);
          if (is_train) {
            const double modeled = modeled_step_seconds(ranks, kCost);
            r.train_wall += s->wall_s;
            r.pol_train[p] += s->wall_s;
            r.modeled += modeled;
            r.comm_modeled += modeled - cmax;
            r.compute_max += cmax;
            r.compute_mean += csum / kRanks;
          } else {
            r.infer_wall += s->wall_s;
            r.pol_infer[p] += s->wall_s;
          }
        }
      }
      sh.rounds.push_back(r);
      const std::size_t n = sh.rounds.size();
      const double elapsed = seconds_since(start);
      if (!sh.args->trace) {
        sh.next = n >= 3 && elapsed >= seconds ? Next::kStop : Next::kRound;
      } else if (!r.traced) {
        sh.next = n >= 3 && elapsed >= untraced_budget ? Next::kTracedRound : Next::kRound;
        if (sh.next == Next::kTracedRound) traced_start = Clock::now();
      } else {
        std::size_t traced = 0;
        for (const RoundAgg& x : sh.rounds) traced += x.traced;
        sh.next = traced >= 2 && seconds_since(traced_start) >= seconds - untraced_budget
                      ? Next::kStop
                      : Next::kTracedRound;
      }
      agnn::obs::Tracer::set_enabled(sh.next == Next::kTracedRound);
    }
    world.barrier();
    if (sh.next == Next::kStop) break;
  }
}

void report_end_to_end(const Shared& sh, Report& report) {
  std::vector<double> train, infer, modeled;
  for (const RoundAgg& r : sh.rounds) {
    train.push_back(r.train_wall);
    infer.push_back(r.infer_wall);
    modeled.push_back(r.modeled);
  }
  // The sum over the engines of each engine's median (stats.hpp); the count
  // and tail percentile are those of the round sums.
  Summary work = summarize(train), inf = summarize(infer);
  work.median = sum_of_medians(sh.train_s);
  inf.median = sum_of_medians(sh.infer_s);
  report.set_timing("work_s", work, 1.0, "s");
  report.set_timing("infer_s", inf, 1.0, "s");
  // The paper's step time is printed but not gated: every gated metric is
  // reported by every workload, and the other two have no ranks to model.
  const Summary m = summarize(modeled);
  std::printf("# not gated: dist_modeled_s %.6g s (median, n=%zu)\n", m.median, m.n);
  report.set_timing("setup_s", summarize(sh.setup_s), 1.0, "s");
}

void report_per_layer(const Shared& sh, const std::vector<agnn::obs::TraceEvent>& events,
                      Report& report) {
  std::vector<double> untraced, traced;
  RoundAgg sum;
  for (const RoundAgg& r : sh.rounds) {
    (r.traced ? traced : untraced).push_back(r.train_wall + r.infer_wall);
    if (!r.traced) continue;
    sum.compute_max += r.compute_max;
    sum.compute_mean += r.compute_mean;
    sum.comm_modeled += r.comm_modeled;
    sum.modeled += r.modeled;
    sum.wait_max += r.wait_max;
    sum.bytes += r.bytes;
    sum.messages += r.messages;
    sum.supersteps += r.supersteps;
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      sum.pol_train[p] += r.pol_train[p];
      sum.pol_infer[p] += r.pol_infer[p];
      sum.pol_bytes[p] += r.pol_bytes[p];
    }
  }
  const double n = static_cast<double>(traced.size());
  report.set("comm.bytes", sum.bytes / n, "B", traced.size());
  report.set("comm.messages", sum.messages / n, "count");
  report.set("comm.supersteps", sum.supersteps / n, "count");
  report.set("comm.modeled_s", sum.comm_modeled / n, "s");
  report.set("comm.wait_s", sum.wait_max / n, "s");
  report.set("dist.compute_s", sum.compute_max / n, "s");
  report.set("dist.modeled_s", sum.modeled / n, "s");
  report.set("dist.imbalance", sum.compute_mean > 0 ? sum.compute_max / sum.compute_mean : 0,
             "ratio");
  for (std::size_t p = 0; p < kNumPolicies; ++p) {
    const std::string name = kPolicyNames[p];
    report.set("comm." + name + ".bytes", sum.pol_bytes[p] / n, "B");
    report.set("dist." + name + ".epoch_s", sum.pol_train[p] / n, "s");
    report.set("dist." + name + ".infer_s", sum.pol_infer[p] / n, "s");
  }
  report.set("dist.setup_s", median(sh.engine_s), "s", sh.engine_s.size());
  report.set("graph.build_s", median(sh.build_s), "s", sh.build_s.size());
  report.set("obs.trace_overhead", median(traced) / median(untraced) - 1.0, "ratio");

  // Span-derived: per-rank self time, slowest rank, per round.
  const SpanTable spans = fold_spans(events);
  const auto coll = self_by_rank(spans, [](const std::string&, const SpanAgg& a) {
    return a.category == SpanCategory::kCollective;
  });
  report.set("comm.collective_s", max_over_ranks(coll) / n, "s");
  for (const char* g : {"spmm", "sddmm", "psi", "softmax", "rowcol", "fused"}) {
    const std::string group = g;
    const auto by_rank = self_by_rank(spans, [&](const std::string& name, const SpanAgg&) {
      return tensor_group(name) == group;
    });
    report.set("tensor." + group + "_s", max_over_ranks(by_rank) / n, "s");
  }
  double calls = 0, bytes = 0, kself = 0;
  for (const auto& [key, agg] : spans) {
    if (agg.category != SpanCategory::kKernel) continue;
    calls += static_cast<double>(agg.count);
    bytes += static_cast<double>(agg.bytes);
    kself += agg.self_s;
  }
  report.set("tensor.calls", calls / n, "count");
  report.set("tensor.bytes", bytes / n, "B");
  report.set("tensor.gbps", kself > 0 ? bytes / kself * 1e-9 : 0.0, "GB/s");
}

}  // namespace

void run_dist_er(const Args& args, Report& report) {
  auto ref = std::make_unique<Reference>();
  make_reference(make_inputs(args.seed), args.seed, *ref);
  agnn::obs::Tracer::instance().clear();

  Shared sh;
  sh.args = &args;
  sh.ref = ref.get();
  sh.report = &report;
  agnn::comm::RunOptions opts;  // no faults, no timeout: the environment is not read
  agnn::comm::SpmdRuntime::run(kRanks, opts,
                               [&](agnn::comm::Communicator& world) { rank_body(world, sh); });

  if (!args.trace) {
    report_end_to_end(sh, report);
    return;
  }
  const std::vector<agnn::obs::TraceEvent> events = drain_events();
  report_per_layer(sh, events, report);
  if (!args.trace_out.empty()) {
    std::vector<agnn::obs::TraceEvent> all = sh.setup_events;
    all.insert(all.end(), events.begin(), events.end());
    if (!write_trace(args.trace_out, all)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace e2ebench
