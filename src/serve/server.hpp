// InferenceServer<T>: the multi-threaded online serving loop.
//
// Worker threads pull coalesced batches off the RequestQueue (Batcher policy:
// max_batch OR batch_window, whichever closes first), sample each request's
// ego network with its id-derived seed, assemble the block-diagonal batch,
// gather input features through the hot-vertex cache, run the forward-only
// pass through the workspace-backed kernels, and fulfil each request's
// promise with its seed row of the output.
//
// Every stage is traced (AGNN_STAGE_SCOPE: serve.batch / serve.sample /
// serve.gather / serve.forward / serve.reply, plus serve.enqueue on the
// submit side), so `AGNN_TRACE=trace.json` on a serving run shows the
// batch pipeline exactly like an epoch shows the kernel pipeline. The
// end-to-end latency histogram serve.request.ns is recorded UNCONDITIONALLY
// (not gated on the tracer) — it is the benchmark's p50/p99/p999 source and
// must work in untraced runs.
//
// Reproducibility contract (tested across thread counts): request id ->
// sample seed via derive_request_seed, so a reply depends only on (model,
// graph, features, fanout, base seed, request id) — never on which worker
// ran it, what else shared its batch, or the batch window. Batching is
// bitwise-invisible (see batch_forward.hpp).
//
// Threading: one Workspace per worker (the pool is not thread-safe); the
// model, adjacency, and feature matrix are shared read-only; the cache and
// queue lock internally.
#pragma once

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "obs/obs_scope.hpp"
#include "serve/batch_forward.hpp"
#include "serve/request_queue.hpp"
#include "serve/vertex_cache.hpp"

namespace agnn::serve {

struct ServeConfig {
  std::size_t num_threads = 1;
  std::size_t max_batch = 32;
  std::chrono::nanoseconds batch_window = std::chrono::milliseconds(1);
  std::size_t queue_capacity = 4096;
  index_t fanout = 10;
  std::uint64_t sample_seed = 0x5eedULL;  // base; per-request via request id
  std::size_t cache_capacity = 1024;      // feature rows
  std::size_t cache_shards = 8;
};

template <typename T>
class InferenceServer {
 public:
  InferenceServer(const GnnModel<T>& model, const CsrMatrix<T>& adj,
                  const DenseMatrix<T>& x, const ServeConfig& config)
      : model_(model),
        adj_(adj),
        x_(x),
        config_(config),
        sampler_(config.fanout, static_cast<index_t>(model.num_layers()),
                 config.sample_seed),
        queue_(config.queue_capacity),
        cache_(config.cache_capacity, config.cache_shards),
        latency_hist_(
            obs::MetricsRegistry::global().histogram("serve.request.ns")),
        batch_size_hist_(
            obs::MetricsRegistry::global().histogram("serve.batch.size")),
        completed_metric_(
            obs::MetricsRegistry::global().counter("serve.requests.completed")),
        batches_metric_(
            obs::MetricsRegistry::global().counter("serve.batches")) {
    AGNN_ASSERT(config.num_threads > 0, "InferenceServer: need a worker");
    AGNN_ASSERT(x.rows() == adj.rows(),
                "InferenceServer: feature rows must match graph");
    AGNN_ASSERT(x.cols() == model.config().in_features,
                "InferenceServer: feature width must match model");
    workers_.reserve(config.num_threads);
    for (std::size_t i = 0; i < config.num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~InferenceServer() { stop(/*drain=*/true); }

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Submit one query. Blocks while the queue is full (backpressure). The
  // future always becomes ready: kOk after a forward pass, kRejected if the
  // server is stopped, kCancelled if stop(false) discarded it.
  std::future<InferenceReply<T>> submit(index_t vertex) {
    AGNN_STAGE_SCOPE("serve.enqueue");
    InferenceRequest<T> req = make_request(vertex);
    auto future = req.promise.get_future();
    if (!queue_.push(std::move(req))) {
      // push only fails on a closed queue and leaves `req` unconsumed, so
      // the original promise can carry the rejection.
      InferenceReply<T> reply = make_terminal_reply(vertex, ReplyStatus::kRejected);
      reply.request_id = req.id;
      req.promise.set_value(std::move(reply));
    }
    return future;
  }

  // Non-blocking submit: nullopt when the queue is full (the caller decides
  // whether to retry, shed, or block); a ready kRejected future when closed.
  std::optional<std::future<InferenceReply<T>>> try_submit(index_t vertex) {
    AGNN_STAGE_SCOPE("serve.enqueue");
    if (queue_.closed()) {
      std::promise<InferenceReply<T>> p;
      auto future = p.get_future();
      p.set_value(make_terminal_reply(vertex, ReplyStatus::kRejected));
      return future;
    }
    InferenceRequest<T> req = make_request(vertex);
    auto future = req.promise.get_future();
    if (!queue_.try_push(std::move(req))) return std::nullopt;
    return future;
  }

  // Stop the server. drain=true: workers finish everything already queued.
  // drain=false: queued-but-unstarted requests are failed with kCancelled.
  // Idempotent; the destructor calls stop(true).
  void stop(bool drain) {
    std::vector<InferenceRequest<T>> leftovers = queue_.close(drain);
    for (auto& req : leftovers) {
      InferenceReply<T> reply = make_terminal_reply(req.vertex, ReplyStatus::kCancelled);
      reply.request_id = req.id;
      reply.sample_seed = derive_request_seed(config_.sample_seed, req.id);
      req.promise.set_value(std::move(reply));
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

  const ServeConfig& config() const { return config_; }
  const NeighborSampler& sampler() const { return sampler_; }
  const VertexCache<T>& cache() const { return cache_; }
  VertexCache<T>& cache() { return cache_; }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t submitted() const {
    return next_id_.load(std::memory_order_relaxed);
  }

 private:
  InferenceRequest<T> make_request(index_t vertex) {
    AGNN_ASSERT(vertex >= 0 && vertex < adj_.rows(),
                "submit: vertex out of range");
    InferenceRequest<T> req;
    req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    req.vertex = vertex;
    req.enqueue_time = std::chrono::steady_clock::now();
    return req;
  }

  InferenceReply<T> make_terminal_reply(index_t vertex, ReplyStatus status) {
    InferenceReply<T> reply;
    reply.vertex = vertex;
    reply.status = status;
    return reply;
  }

  void worker_loop() {
    Workspace<T> ws;
    std::vector<InferenceRequest<T>> batch;
    for (;;) {
      {
        // Spans batch formation: the wait for the first request plus the
        // coalescing window. Idle time between batches lands here.
        AGNN_STAGE_SCOPE("serve.batch");
        if (!queue_.pop_batch(config_.max_batch, config_.batch_window, batch)) {
          return;  // closed and drained
        }
      }
      process_batch(batch, ws);
    }
  }

  void process_batch(std::vector<InferenceRequest<T>>& batch, Workspace<T>& ws) {
    const std::uint64_t seq_base =
        dispatch_seq_.fetch_add(batch.size(), std::memory_order_relaxed);
    batches_metric_.add(1);
    batch_size_hist_.record(batch.size());

    std::vector<SampledEgoNet<T>> nets;
    nets.reserve(batch.size());
    {
      AGNN_STAGE_SCOPE("serve.sample");
      for (const auto& req : batch) {
        nets.push_back(sampler_.template sample_for_request<T>(
            adj_, req.vertex, req.id));
      }
    }
    std::vector<const SampledEgoNet<T>*> net_ptrs;
    net_ptrs.reserve(nets.size());
    for (const auto& net : nets) net_ptrs.push_back(&net);
    const BatchBlocks<T> bb =
        build_batch(std::span<const SampledEgoNet<T>* const>(net_ptrs));

    auto x0 = ws.acquire_dense(static_cast<index_t>(bb.input_vertices.size()),
                               x_.cols());
    {
      AGNN_STAGE_SCOPE("serve.gather");
      const auto k = static_cast<std::size_t>(x_.cols());
      for (std::size_t i = 0; i < bb.input_vertices.size(); ++i) {
        const index_t g = bb.input_vertices[i];
        cache_.fetch(g, x0->data() + static_cast<index_t>(i) * x_.cols(), k,
                     [this](index_t v, T* dst) {
                       const auto row = x_.row(v);
                       std::copy(row.begin(), row.end(), dst);
                     });
      }
    }

    auto out = ws.acquire_dense(static_cast<index_t>(batch.size()),
                                model_.max_layer_width());
    {
      AGNN_STAGE_SCOPE("serve.forward");
      forward_batch(model_, bb, *x0, ws, *out);
    }

    {
      AGNN_STAGE_SCOPE("serve.reply");
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < batch.size(); ++r) {
        InferenceRequest<T>& req = batch[r];
        InferenceReply<T> reply;
        reply.request_id = req.id;
        reply.vertex = req.vertex;
        reply.status = ReplyStatus::kOk;
        const auto row = out->row(static_cast<index_t>(r));
        reply.output.assign(row.begin(), row.end());
        reply.sample_seed = derive_request_seed(config_.sample_seed, req.id);
        reply.dispatch_seq = seq_base + r;
        reply.batch_size = static_cast<index_t>(batch.size());
        reply.sampled_vertices = nets[r].num_vertices();
        reply.latency_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - req.enqueue_time)
                .count());
        latency_hist_.record(reply.latency_ns);
        completed_metric_.add(1);
        completed_.fetch_add(1, std::memory_order_relaxed);
        req.promise.set_value(std::move(reply));
      }
    }
  }

  const GnnModel<T>& model_;
  const CsrMatrix<T>& adj_;
  const DenseMatrix<T>& x_;
  const ServeConfig config_;
  const NeighborSampler sampler_;
  RequestQueue<T> queue_;
  VertexCache<T> cache_;
  obs::Histogram& latency_hist_;
  obs::Histogram& batch_size_hist_;
  obs::Counter& completed_metric_;
  obs::Counter& batches_metric_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> dispatch_seq_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace agnn::serve
