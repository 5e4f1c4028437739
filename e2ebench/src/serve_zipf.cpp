// serve-zipf: traffic against serve::InferenceServer (2 workers, max_batch
// 64, 1 ms window, fanout 10, 2048-row cache, OpenMP pinned to 1 thread).
// 2-layer GAT 32->32->16 on Kronecker scale 14 at density 0.001, as in
// bench_serving, with Zipf(0.99) vertex draws. End to end: bursts of 2048
// requests (work_s) and lone requests (infer_s). The traced run sends
// open-loop Poisson traffic at 8k and 16k req/s.
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "serve/server.hpp"
#include "serve/zipf.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using agnn::CsrMatrix;
using agnn::DenseMatrix;
using agnn::index_t;
using agnn::obs::SpanCategory;
using agnn::obs::SpanScope;
using real_t = float;
using Reply = agnn::serve::InferenceReply<real_t>;

constexpr int kScale = 14;
constexpr double kDensity = 0.001;
constexpr index_t kFeatures = 32;
constexpr double kZipfExponent = 0.99;
// Which vertices are popular is part of the workload, as in bench_serving:
// with Zipf(0.99) the most popular vertex alone draws ~10% of the requests,
// so a seed-drawn popularity order would make the per-request work (the
// sampled ego-network size) depend on the seed more than on the code.
constexpr std::uint64_t kPopularityPermSeed = 3;
// A set-up takes about 0.3 s here, so five of them cost little and steady
// the median.
constexpr int kSetupReps = 5;
constexpr int kWarmupRequests = 512;
constexpr double kLowRps = 8000;
constexpr double kHighRps = 16000;
constexpr int kChecksPerPhase = 32;  // replies replayed through serve_sequential
// Half the server's queue, so a burst never blocks in submit; 32 full
// batches, 16 per worker.
constexpr std::size_t kBurstRequests = 2048;
// Share of --seconds spent on bursts; lone requests take the rest.
constexpr double kBurstShare = 0.7;

agnn::serve::ServeConfig serve_config(std::uint64_t seed) {
  agnn::serve::ServeConfig sc;
  sc.num_threads = 2;
  sc.max_batch = 64;
  sc.batch_window = std::chrono::milliseconds(1);
  sc.fanout = 10;
  sc.sample_seed = derive_seed(seed, 5);
  sc.cache_capacity = 2048;
  sc.cache_shards = 8;
  return sc;
}

struct Setup {
  CsrMatrix<real_t> adj;
  DenseMatrix<real_t> x;
  std::unique_ptr<agnn::GnnModel<real_t>> model;
  std::unique_ptr<agnn::serve::ZipfSampler> zipf;
  std::unique_ptr<agnn::serve::InferenceServer<real_t>> server;
};

// Builds everything a serving run needs and warms the server up. Returns
// the graph build time.
double set_up(std::uint64_t seed, Setup& s) {
  const Clock::time_point t0 = Clock::now();
  {
    const SpanScope span("bench.graph.build", SpanCategory::kPhase);
    const double n = static_cast<double>(index_t(1) << kScale);
    agnn::graph::KroneckerParams p;
    p.scale = kScale;
    p.edges = static_cast<index_t>(kDensity * n * n);
    p.seed = derive_seed(seed, 1);
    s.adj = agnn::graph::build_graph<real_t>(agnn::graph::generate_kronecker(p)).adj;
  }
  const double build_s = seconds_since(t0);
  agnn::Rng xr(derive_seed(seed, 2));
  s.x = DenseMatrix<real_t>(s.adj.rows(), kFeatures);
  s.x.fill_uniform(xr, -1.0, 1.0);
  agnn::GnnConfig cfg;
  cfg.kind = agnn::ModelKind::kGAT;
  cfg.in_features = kFeatures;
  cfg.layer_widths = {kFeatures, kFeatures / 2};
  cfg.seed = derive_seed(seed, 4);
  s.model = std::make_unique<agnn::GnnModel<real_t>>(cfg);
  s.zipf = std::make_unique<agnn::serve::ZipfSampler>(s.adj.rows(), kZipfExponent,
                                                      kPopularityPermSeed);
  {
    const SpanScope span("bench.serve.construct", SpanCategory::kPhase);
    s.server = std::make_unique<agnn::serve::InferenceServer<real_t>>(
        *s.model, s.adj, s.x, serve_config(seed));
  }
  // Warm-up: fill the workers' workspaces and the vertex cache.
  const bool traced = agnn::obs::Tracer::enabled();
  agnn::obs::Tracer::set_enabled(false);
  agnn::Rng wr(derive_seed(seed, 7));
  std::vector<std::future<Reply>> warm;
  warm.reserve(kWarmupRequests);
  for (int i = 0; i < kWarmupRequests; ++i) warm.push_back(s.server->submit(s.zipf->sample(wr)));
  for (auto& f : warm) f.get();
  agnn::obs::Tracer::set_enabled(traced);
  return build_s;
}

bool reply_ok(const Reply& r) {
  bool ok = r.status == agnn::serve::ReplyStatus::kOk &&
            r.output.size() == static_cast<std::size_t>(kFeatures / 2);
  for (const real_t v : r.output) ok = ok && std::isfinite(v);
  return ok;
}

// Output check: the reply is bitwise equal to serve_sequential on the same
// vertex and request seed (batched == sequential).
void check_reply(const Setup& s, const agnn::serve::NeighborSampler& sampler,
                 std::uint64_t sample_seed, index_t vertex, const Reply& r,
                 agnn::Workspace<real_t>& ws, Report& report) {
  if (r.status != agnn::serve::ReplyStatus::kOk) return;  // counted as a failure already
  const std::vector<real_t> want = agnn::serve::serve_sequential(
      *s.model, s.adj, s.x, sampler, vertex,
      agnn::serve::derive_request_seed(sample_seed, r.request_id), ws);
  const bool same = want.size() == r.output.size() &&
                    std::memcmp(want.data(), r.output.data(), want.size() * sizeof(real_t)) == 0;
  report.fails.add(same);
  if (!same) {
    report.checks_ok = false;
    std::fprintf(stderr, "check failed: reply %llu (vertex %d) differs from serve_sequential\n",
                 static_cast<unsigned long long>(r.request_id), static_cast<int>(vertex));
  }
}

// Closed burst: kBurstRequests Zipf draws submitted back to back, timed from
// the first submit to the last reply. The server runs saturated with full
// batches, so this is its throughput. One seeded reply per burst is replayed.
struct Burst {
  std::vector<index_t> vertex = std::vector<index_t>(kBurstRequests);
  std::vector<std::future<Reply>> futures = std::vector<std::future<Reply>>(kBurstRequests);
};

double run_burst(Setup& s, const agnn::serve::NeighborSampler& sampler,
                 std::uint64_t sample_seed, agnn::Rng& rng, Burst& b,
                 agnn::Workspace<real_t>& ws, Report& report) {
  for (auto& v : b.vertex) v = s.zipf->sample(rng);
  const std::size_t check = static_cast<std::size_t>(rng.next_bounded(kBurstRequests));
  Reply kept;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kBurstRequests; ++i) b.futures[i] = s.server->submit(b.vertex[i]);
  for (std::size_t i = 0; i < kBurstRequests; ++i) {
    Reply r = b.futures[i].get();
    report.fails.add(reply_ok(r));
    if (i == check) kept = std::move(r);
  }
  const double t = seconds_since(t0);
  check_reply(s, sampler, sample_seed, b.vertex[check], kept, ws, report);
  return t;
}

// One request in flight: what a lone caller waits, including the batch
// window and the per-call costs of a batch of one. About one reply in 64 is
// replayed.
double run_lone(Setup& s, const agnn::serve::NeighborSampler& sampler,
                std::uint64_t sample_seed, agnn::Rng& rng, agnn::Workspace<real_t>& ws,
                Report& report) {
  const index_t v = s.zipf->sample(rng);
  const bool check = rng.next_bounded(64) == 0;
  const Clock::time_point t0 = Clock::now();
  const Reply r = s.server->submit(v).get();
  const double t = seconds_since(t0);
  report.fails.add(reply_ok(r));
  if (check) check_reply(s, sampler, sample_seed, v, r, ws, report);
  return t;
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

struct Phase {
  double offered_rps = 0;
  double duration_s = 0;
  // Per request, all allocated before the first send.
  std::vector<std::int64_t> due_ns, send_ns;
  std::vector<index_t> vertex;
  std::vector<std::future<Reply>> futures;
  std::vector<std::uint8_t> refused;
  std::vector<std::uint64_t> server_latency_ns;
  std::vector<double> latency_ms;  // from the due time; refused = +inf
  std::vector<std::uint32_t> window;  // time window of each request's due time
  std::vector<std::uint64_t> window_backlog;  // unanswered at each window's end
  // Results.
  std::uint64_t ok = 0, refused_count = 0, backlog = 0;
  double achieved_rps = 0;
  double windowed_p50_ms = 0, windowed_p99_ms = 0;
  double late_p99_ms = 0;  // generator lateness (send - due)
  agnn::serve::VertexCache<real_t>::Stats cache0, cache1;

  // Frees the per-request bookkeeping once the phase's figures are taken.
  void release() {
    for (auto* v : {&due_ns, &send_ns}) std::vector<std::int64_t>().swap(*v);
    std::vector<index_t>().swap(vertex);
    std::vector<std::future<Reply>>().swap(futures);
    std::vector<std::uint8_t>().swap(refused);
    std::vector<std::uint64_t>().swap(server_latency_ns);
    std::vector<double>().swap(latency_ms);
    std::vector<std::uint32_t>().swap(window);
  }
};

// Open-loop generator on the calling thread: seeded Poisson arrivals and
// Zipf vertex draws; sleeps until just before each due time, then spins.
void run_phase(Setup& s, const agnn::serve::NeighborSampler& sampler,
               std::uint64_t sample_seed, double rps, double duration_s,
               agnn::Rng& rng, Report& report, Phase& ph) {
  ph.offered_rps = rps;
  ph.duration_s = duration_s;
  const double mean_gap_ns = 1e9 / rps;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
    if (t >= duration_s * 1e9) break;
    ph.due_ns.push_back(static_cast<std::int64_t>(t));
    ph.vertex.push_back(s.zipf->sample(rng));
  }
  const std::size_t n = ph.due_ns.size();
  ph.send_ns.assign(n, 0);
  ph.futures.resize(n);
  ph.refused.assign(n, 0);
  ph.server_latency_ns.assign(n, 0);
  ph.latency_ms.assign(n, 0.0);
  // Windows of at most 1 s, at least four per phase.
  const double window_ns = std::min(1.0, duration_s / 4) * 1e9;
  ph.window.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ph.window[i] = static_cast<std::uint32_t>(static_cast<double>(ph.due_ns[i]) / window_ns);
  }
  ph.window_backlog.reserve(static_cast<std::size_t>(duration_s * 1e9 / window_ns) + 2);
  std::vector<std::size_t> check_idx;
  for (int i = 0; i < kChecksPerPhase && n > 0; ++i) {
    check_idx.push_back(static_cast<std::size_t>(rng.next_bounded(n)));
  }
  auto& server = *s.server;
  ph.cache0 = server.cache().stats();
  const std::uint64_t submitted0 = server.submitted(), completed0 = server.completed();

  std::uint64_t refused_so_far = 0;
  auto backlog_now = [&] {
    return (server.submitted() - submitted0 - refused_so_far) -
           (server.completed() - completed0);
  };
  const std::int64_t base = to_ns(Clock::now()) + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && ph.window[i] != ph.window[i - 1]) ph.window_backlog.push_back(backlog_now());
    ph.due_ns[i] += base;
    std::int64_t now = to_ns(Clock::now());
    while (now < ph.due_ns[i]) {
      const std::int64_t left = ph.due_ns[i] - now;
      if (left > 1'000'000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 500'000));
      now = to_ns(Clock::now());
    }
    ph.send_ns[i] = now;
    auto f = server.try_submit(ph.vertex[i]);
    if (f) {
      ph.futures[i] = std::move(*f);
    } else {
      ph.refused[i] = 1;
      ++refused_so_far;
    }
  }
  ph.refused_count = refused_so_far;
  ph.window_backlog.push_back(backlog_now());
  std::vector<double> wb(ph.window_backlog.begin(), ph.window_backlog.end());
  ph.backlog = static_cast<std::uint64_t>(median(std::move(wb)));

  // Collect every reply; replay a seeded sample through the sequential path.
  agnn::Workspace<real_t> ws;
  std::vector<Reply> kept(n);
  std::vector<double> late;
  late.reserve(n);
  std::int64_t last_reply = ph.send_ns.empty() ? 0 : ph.send_ns.front();
  for (std::size_t i = 0; i < n; ++i) {
    late.push_back(static_cast<double>(ph.send_ns[i] - ph.due_ns[i]) * 1e-6);
    bool ok = false;
    if (!ph.refused[i]) {
      Reply r = ph.futures[i].get();
      ok = reply_ok(r);
      ph.server_latency_ns[i] = r.latency_ns;
      last_reply = std::max(last_reply, ph.send_ns[i] + static_cast<std::int64_t>(r.latency_ns));
      kept[i] = std::move(r);
    }
    ph.latency_ms[i] = latency_from_due_ms(ph.due_ns[i], ph.send_ns[i],
                                           ph.server_latency_ns[i], ph.refused[i] != 0);
    ph.ok += ok;
    report.fails.add(ok);
  }
  for (const std::size_t i : check_idx) {
    if (ph.refused[i]) continue;
    check_reply(s, sampler, sample_seed, ph.vertex[i], kept[i], ws, report);
  }
  ph.cache1 = server.cache().stats();
  const double span_s = n > 0 ? static_cast<double>(last_reply - ph.send_ns.front()) * 1e-9 : 0;
  ph.achieved_rps = span_s > 0 ? static_cast<double>(ph.ok) / span_s : 0;
  ph.windowed_p50_ms = windowed_percentile(ph.latency_ms, ph.window, 5000);
  ph.windowed_p99_ms = windowed_percentile(ph.latency_ms, ph.window, 9900);
  std::sort(late.begin(), late.end());
  ph.late_p99_ms = percentile_sorted(late, 9900);
}

void print_phase(const char* name, const Phase& ph) {
  std::vector<double> sorted = ph.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  std::printf("# phase %-8s offered %8.0f req/s achieved %9.1f req/s  n=%zu  p50 %.3f ms  "
              "p99 %.3f ms (windowed %.3f)  refused %llu  backlog %llu  gen late p99 %.3f ms\n",
              name, ph.offered_rps, ph.achieved_rps, ph.latency_ms.size(),
              percentile_sorted(sorted, 5000), percentile_sorted(sorted, 9900),
              ph.windowed_p99_ms,
              static_cast<unsigned long long>(ph.refused_count),
              static_cast<unsigned long long>(ph.backlog), ph.late_p99_ms);
}

// Per-request queue time: from send until the worker started sampling the
// request's batch. A request's batch is the one whose reply stage began at
// send + server latency (the server stamps the reply time at that stage).
Summary queue_times(const std::vector<agnn::obs::TraceEvent>& events,
                    const std::vector<const Phase*>& phases) {
  std::vector<std::pair<std::int64_t, std::int64_t>> batches;  // reply begin, sample begin
  std::int64_t last_sample = -1;
  for (const auto& e : events) {
    if (e.phase != 'B') continue;
    const std::string_view name = e.name;
    if (name == "serve.sample") last_sample = static_cast<std::int64_t>(e.ts_ns);
    if (name == "serve.reply" && last_sample >= 0) {
      batches.emplace_back(static_cast<std::int64_t>(e.ts_ns), last_sample);
    }
  }
  std::sort(batches.begin(), batches.end());
  // Tracer timestamps count from its own epoch on the same steady clock.
  const std::int64_t offset =
      to_ns(Clock::now()) - static_cast<std::int64_t>(agnn::obs::detail::now_ns());
  std::vector<double> q;
  for (const Phase* ph : phases) {
    for (std::size_t i = 0; i < ph->send_ns.size(); ++i) {
      if (ph->refused[i]) continue;
      const std::int64_t reply =
          ph->send_ns[i] + static_cast<std::int64_t>(ph->server_latency_ns[i]) - offset;
      auto it = std::lower_bound(batches.begin(), batches.end(),
                                 std::make_pair(reply, std::int64_t{0}));
      const std::pair<std::int64_t, std::int64_t>* best = nullptr;
      if (it != batches.end()) best = &*it;
      if (it != batches.begin() &&
          (best == nullptr || reply - (it - 1)->first < best->first - reply)) {
        best = &*(it - 1);
      }
      if (best == nullptr || std::llabs(best->first - reply) > 50'000) continue;
      q.push_back(static_cast<double>(std::max<std::int64_t>(
                      0, best->second - (ph->send_ns[i] - offset))) * 1e-6);
    }
  }
  return summarize(std::move(q));
}

}  // namespace

void run_serve_zipf(const Args& args, Report& report) {
  std::vector<double> setup_s, build_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.server.reset();  // stop the workers before the data they read goes
    s = Setup{};
    agnn::obs::Tracer::set_enabled(args.trace);
    const Clock::time_point t0 = Clock::now();
    build_s.push_back(set_up(args.seed, s));
    setup_s.push_back(seconds_since(t0));
    agnn::obs::Tracer::set_enabled(false);
  }
  std::vector<agnn::obs::TraceEvent> setup_events =
      args.trace ? drain_events() : std::vector<agnn::obs::TraceEvent>{};

  const agnn::serve::ServeConfig sc = serve_config(args.seed);
  const agnn::serve::NeighborSampler& sampler = s.server->sampler();
  agnn::Rng rng(derive_seed(args.seed, 8));
  const double S = args.seconds;
  if (!args.trace) {
    agnn::Workspace<real_t> ws;
    Burst b;
    // Two unmeasured bursts: the first full batches of this server.
    for (int i = 0; i < 2; ++i) run_burst(s, sampler, sc.sample_seed, rng, b, ws, report);
    std::vector<double> burst, lone;
    Clock::time_point t0 = Clock::now();
    while (burst.size() < 3 || seconds_since(t0) < kBurstShare * S) {
      burst.push_back(run_burst(s, sampler, sc.sample_seed, rng, b, ws, report));
    }
    t0 = Clock::now();
    while (lone.size() < 100 || seconds_since(t0) < (1 - kBurstShare) * S) {
      lone.push_back(run_lone(s, sampler, sc.sample_seed, rng, ws, report));
    }
    report.set_timing("work_s", summarize(burst), 1.0, "s");
    report.set_timing("infer_s", summarize(lone), 1.0, "s");
    report.set_timing("setup_s", summarize(setup_s), 1.0, "s");
    return;
  }

  std::vector<std::unique_ptr<Phase>> phases;
  auto phase = [&](double rps, double dur) -> Phase& {
    phases.push_back(std::make_unique<Phase>());
    run_phase(s, sampler, sc.sample_seed, rps, dur, rng, report, *phases.back());
    return *phases.back();
  };
  // The first open-loop phase of a process runs late (first touch of the
  // generator's and the workers' heap); it is not measured.
  phase(kLowRps, std::max(1.0, 0.05 * S)).release();

  // Traced run: an untraced high phase as the overhead baseline, then traced
  // low and high phases for the per-layer table.
  const Phase& base = phase(kHighRps, 0.25 * S);
  auto& batch_hist = agnn::obs::MetricsRegistry::global().histogram("serve.batch.size");
  batch_hist.reset();
  agnn::obs::Tracer::set_enabled(true);
  const Phase& low = phase(kLowRps, 0.2 * S);
  const Phase& high = phase(kHighRps, 0.25 * S);
  agnn::obs::Tracer::set_enabled(false);
  print_phase("base", base);
  print_phase("low", low);
  print_phase("high", high);
  const std::vector<agnn::obs::TraceEvent> events = drain_events();
  const SpanTable spans = fold_spans(events);
  auto mean_ms = [&](const char* name) {
    const auto it = spans.find({-1, name});
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count) * 1e3;
  };
  const Summary q = queue_times(events, {&low, &high});
  report.set("serve.queue_ms", q.median, "ms", q.n);
  report.set("serve.batch_size_p50", static_cast<double>(batch_hist.p50()), "count",
             batch_hist.count());
  report.set("serve.sample_ms", mean_ms("serve.sample"), "ms");
  report.set("serve.gather_ms", mean_ms("serve.gather"), "ms");
  report.set("serve.forward_ms", mean_ms("serve.forward"), "ms");
  report.set("serve.reply_ms", mean_ms("serve.reply"), "ms");
  double hits = 0, lookups = 0, late_p99 = 0;
  std::uint64_t refused = 0, backlog = 0;
  std::vector<double> late;
  for (const Phase* ph : {&low, &high}) {
    hits += static_cast<double>(ph->cache1.hits - ph->cache0.hits);
    lookups += static_cast<double>(ph->cache1.hits + ph->cache1.misses - ph->cache0.hits -
                                   ph->cache0.misses);
    refused += ph->refused_count;
    backlog = std::max(backlog, ph->backlog);
    for (std::size_t i = 0; i < ph->send_ns.size(); ++i) {
      late.push_back(static_cast<double>(ph->send_ns[i] - ph->due_ns[i]) * 1e-6);
    }
  }
  std::sort(late.begin(), late.end());
  late_p99 = percentile_sorted(late, 9900);
  report.set("serve.cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  report.set("serve.refused", static_cast<double>(refused), "count");
  report.set("serve.backlog", static_cast<double>(backlog), "count");
  report.set("serve.gen_late_ms", late_p99, "ms", late.size());

  // Kernel time per second of traced traffic.
  const double traffic_s = low.duration_s + high.duration_s;
  std::map<std::string, double> group_s;
  double calls = 0, bytes = 0, kself = 0;
  for (const auto& [key, agg] : spans) {
    if (agg.category != SpanCategory::kKernel) continue;
    calls += static_cast<double>(agg.count);
    bytes += static_cast<double>(agg.bytes);
    kself += agg.self_s;
    const std::string g = tensor_group(key.second);
    if (!g.empty()) group_s[g] += agg.self_s;
  }
  for (const char* g : {"spmm", "sddmm", "psi", "softmax", "rowcol", "fused"}) {
    report.set(std::string("tensor.") + g + "_s", group_s[g] / traffic_s, "s");
  }
  report.set("tensor.calls", calls / traffic_s, "count");
  report.set("tensor.bytes", bytes / traffic_s, "B");
  report.set("tensor.gbps", kself > 0 ? bytes / kself * 1e-9 : 0.0, "GB/s");
  report.set("graph.build_s", median(build_s), "s", build_s.size());
  report.set("obs.trace_overhead", high.windowed_p50_ms / base.windowed_p50_ms - 1.0, "ratio");

  if (!args.trace_out.empty()) {
    setup_events.insert(setup_events.end(), events.begin(), events.end());
    if (!write_trace(args.trace_out, setup_events)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace e2ebench
