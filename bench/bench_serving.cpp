// Online-serving benchmark: closed-loop Zipf clients against the
// InferenceServer, reporting end-to-end latency quantiles (p50/p99/p999
// from the serve.request.ns histogram) and sustained throughput, across
// the batch-window x fan-out x server-thread grid — plus the per-request
// sequential baseline the batched rows must beat (the whole point of the
// request batcher is that coalescing amortizes per-forward overheads:
// fewer kernel launches and parallel regions, one attention pass over
// the disjoint union instead of B tiny ones).
//
// Workload: dataset B0 at scale 14 (n = 2^14 Kronecker), 2-layer GAT,
// float32, Zipf(0.99) vertex popularity — the hot-vertex regime the
// feature cache exists for. Closed loop: each client keeps exactly one
// request in flight, so concurrency equals the client count and the
// batcher's window (not an unbounded backlog) is what creates batches.
//
// Pinned rows live in results/baseline_bench.json; CI re-runs this bench
// and gates on regressions via bench_compare.
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/zipf.hpp"

namespace agnn::bench {
namespace {

constexpr int kScale = 14;
constexpr double kDensity = 0.001;  // ~16 neighbors/vertex at scale 14
constexpr index_t kFeatures = 32;
constexpr int kLayers = 2;
constexpr double kZipfExponent = 0.99;
constexpr int kClients = 8;
// Each client keeps kPipeline requests in flight (submit a burst, drain
// it, repeat). Total outstanding = kClients * kPipeline = 64, matched to
// the server's max_batch so full batches close immediately instead of
// idling out the window timer.
constexpr int kPipeline = 8;
constexpr int kRoundsPerClient = 16;
constexpr int kRequestsPerClient = kPipeline * kRoundsPerClient;
constexpr int kTotalRequests = kClients * kRequestsPerClient;

struct ServingFixture {
  graph::Graph<real_t> graph;
  GnnModel<real_t> model;
  DenseMatrix<real_t> x;
  serve::ZipfSampler zipf;

  ServingFixture()
      : graph(kronecker_graph(kScale, kDensity, 77)),
        model([] {
          GnnConfig cfg = model_config(ModelKind::kGAT, kFeatures, kLayers);
          cfg.layer_widths.back() = kFeatures / 2;
          return cfg;
        }()),
        x(graph.num_vertices(), kFeatures),
        zipf(graph.num_vertices(), kZipfExponent, /*perm_seed=*/3) {
    Rng rng(11);
    x.fill_uniform(rng, -1.0, 1.0);
  }
};

const ServingFixture& fixture() {
  static const ServingFixture fx;
  return fx;
}

obs::Histogram& latency_histogram() {
  return obs::MetricsRegistry::global().histogram("serve.request.ns");
}

obs::Histogram& batch_size_histogram() {
  return obs::MetricsRegistry::global().histogram("serve.batch.size");
}

void attach_serving_counters(benchmark::State& state, double elapsed_s,
                             int completed) {
  state.counters["req_per_s"] = static_cast<double>(completed) / elapsed_s;
  attach_histogram_quantiles(state, "serve.request.ns");
  // attach_histogram_quantiles is tracer-gated for kernel latencies, but
  // serve.request.ns records unconditionally, so the quantiles are always
  // present here.
}

// ---- direct baseline -------------------------------------------------------
// No server at all: one thread calling the sampling + gather + forward
// pipeline in a loop. This is the compute floor — no queue, no futures,
// no wakeups — useful to see how much the serving machinery itself costs.
void ServingDirect(benchmark::State& state) {
  const auto& fx = fixture();
  const auto fanout = static_cast<index_t>(state.range(0));
  const serve::NeighborSampler sampler(fanout, kLayers, /*base_seed=*/42);
  Workspace<real_t> ws;
  latency_histogram().reset();

  // Warm the workspace pool outside the measured window.
  (void)serve::serve_sequential(fx.model, fx.graph.adj, fx.x, sampler, 0,
                                serve::derive_request_seed(42, 0), ws);

  double elapsed_s = 0;
  for (auto _ : state) {
    Rng vertex_rng(5);
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kTotalRequests; ++i) {
      const index_t v = fx.zipf.sample(vertex_rng);
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(serve::serve_sequential(
          fx.model, fx.graph.adj, fx.x, sampler, v,
          serve::derive_request_seed(42, static_cast<std::uint64_t>(i)), ws));
      latency_histogram().record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
    state.SetIterationTime(elapsed_s);
  }
  attach_serving_counters(state, elapsed_s, kTotalRequests);
  state.counters["fanout"] = static_cast<double>(fanout);
}

// ---- server benches --------------------------------------------------------
// Shared harness: closed-loop pipelined Zipf clients against a live
// InferenceServer. `max_batch == 1` is the per-request sequential serving
// baseline (every request pays its own dispatch + wakeup); `max_batch > 1`
// is the batched path the baseline has to lose to — coalescing amortizes
// the queue/condvar/reply machinery across the whole batch.
void run_server_bench(benchmark::State& state, index_t fanout,
                      std::size_t max_batch, long window_us,
                      std::size_t threads) {
  const auto& fx = fixture();
  serve::ServeConfig sc;
  sc.num_threads = threads;
  sc.max_batch = max_batch;
  sc.batch_window = std::chrono::microseconds(window_us);
  sc.fanout = fanout;
  sc.sample_seed = 42;
  sc.cache_capacity = 2048;
  sc.cache_shards = 8;

  double elapsed_s = 0;
  serve::VertexCache<real_t>::Stats cache_stats;
  for (auto _ : state) {
    serve::InferenceServer<real_t> server(fx.model, fx.graph.adj, fx.x, sc);
    // Warm-up outside the measured window: first touch of the workspace
    // pools, then reset the cumulative registry histograms so the
    // quantiles below describe this configuration only.
    server.submit(0).get();
    latency_histogram().reset();
    batch_size_histogram().reset();

    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng vertex_rng(static_cast<std::uint64_t>(c) + 5);
        std::vector<std::future<serve::InferenceReply<real_t>>> inflight;
        inflight.reserve(kPipeline);
        for (int round = 0; round < kRoundsPerClient; ++round) {
          // Closed loop with pipeline depth kPipeline: burst-submit,
          // then drain the burst before the next one.
          for (int i = 0; i < kPipeline; ++i) {
            inflight.push_back(server.submit(fx.zipf.sample(vertex_rng)));
          }
          for (auto& f : inflight) f.get();
          inflight.clear();
        }
      });
    }
    for (auto& t : clients) t.join();
    elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
    state.SetIterationTime(elapsed_s);
    cache_stats = server.cache().stats();
    server.stop(/*drain=*/true);
  }
  attach_serving_counters(state, elapsed_s, kTotalRequests);
  state.counters["fanout"] = static_cast<double>(fanout);
  state.counters["max_batch"] = static_cast<double>(max_batch);
  state.counters["window_us"] = static_cast<double>(window_us);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cache_hit_rate"] = cache_stats.hit_rate();
  state.counters["cache_evictions"] = static_cast<double>(cache_stats.evictions);
  if (batch_size_histogram().count() > 0) {
    state.counters["batch_p50"] = static_cast<double>(batch_size_histogram().p50());
  }
}

void ServingPerRequest(benchmark::State& state) {
  run_server_bench(state, static_cast<index_t>(state.range(0)),
                   /*max_batch=*/1, /*window_us=*/0,
                   static_cast<std::size_t>(state.range(1)));
}

void ServingBatched(benchmark::State& state) {
  run_server_bench(state, static_cast<index_t>(state.range(0)),
                   /*max_batch=*/64, state.range(1),
                   static_cast<std::size_t>(state.range(2)));
}

void register_all() {
  for (const long fanout : {5L, 10L}) {
    benchmark::RegisterBenchmark(
        ("ServingDirect/fanout" + std::to_string(fanout)).c_str(),
        ServingDirect)
        ->Args({fanout})
        ->UseManualTime()
        ->Iterations(1);
    for (const long threads : {1L, 4L}) {
      benchmark::RegisterBenchmark(
          ("ServingPerRequest/fanout" + std::to_string(fanout) + "/threads" +
           std::to_string(threads))
              .c_str(),
          ServingPerRequest)
          ->Args({fanout, threads})
          ->UseManualTime()
          ->Iterations(1);
    }
    for (const long window_us : {0L, 1000L, 2000L}) {
      for (const long threads : {1L, 4L}) {
        benchmark::RegisterBenchmark(
            ("ServingBatched/fanout" + std::to_string(fanout) + "/window_us" +
             std::to_string(window_us) + "/threads" + std::to_string(threads))
                .c_str(),
            ServingBatched)
            ->Args({fanout, window_us, threads})
            ->UseManualTime()
            ->Iterations(1);
      }
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace agnn::bench

AGNN_BENCH_MAIN()