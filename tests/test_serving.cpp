// The serving layer's correctness contracts:
//   * the sampler respects the fan-out bound, renumbers seed-locally, and
//     replays exactly from its seed;
//   * the queue flushes batches in FIFO order under both closing rules
//     (max_batch and window);
//   * the cache accounts hits/misses/evictions exactly;
//   * batched serving is BITWISE equal to per-request sequential serving on
//     every model kind — batching must be a pure throughput transform;
//   * the per-request seed derives from the request id, so replies are
//     reproducible across server thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "serve/server.hpp"
#include "serve/zipf.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using serve::BatchBlocks;
using serve::InferenceReply;
using serve::InferenceRequest;
using serve::NeighborSampler;
using serve::RequestQueue;
using serve::SampledEgoNet;
using serve::ServeConfig;
using serve::VertexCache;
using serve::derive_request_seed;

template <typename T>
CsrMatrix<T> serving_graph(index_t n, index_t m, std::uint64_t seed,
                           ModelKind kind) {
  const auto g = testing::small_graph<T>(n, m, seed);
  return kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
}

// ---- sampler --------------------------------------------------------------

TEST(ServingSampler, FanoutBoundHoldsOnEveryDstRow) {
  const auto adj = serving_graph<double>(60, 600, 11, ModelKind::kVA);
  const NeighborSampler sampler(3, 2);
  for (index_t v : {index_t{0}, index_t{17}, index_t{59}}) {
    const auto net = sampler.sample(adj, v, 99);
    ASSERT_EQ(net.num_layers(), 2);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& b = net.blocks[i];
      EXPECT_EQ(b.rows(), b.cols()) << "blocks must be square";
      EXPECT_EQ(b.rows(), net.src_size(i));
      for (index_t d = 0; d < net.dst_size(i); ++d) {
        EXPECT_LE(b.row_end(d) - b.row_begin(d), sampler.fanout());
      }
      for (index_t r = net.dst_size(i); r < b.rows(); ++r) {
        EXPECT_EQ(b.row_end(r), b.row_begin(r)) << "pad rows must be empty";
      }
    }
  }
}

TEST(ServingSampler, FullRowsPassThroughWhenDegreeWithinFanout) {
  const auto adj = serving_graph<double>(30, 90, 5, ModelKind::kVA);
  const NeighborSampler sampler(1000, 1);  // fanout exceeds every degree
  const index_t v = 7;
  const auto net = sampler.sample(adj, v, 3);
  const auto& b = net.blocks[0];
  ASSERT_EQ(net.num_seeds(), 1);
  EXPECT_EQ(b.row_end(0) - b.row_begin(0), adj.row_end(v) - adj.row_begin(v));
}

TEST(ServingSampler, RenumberingRoundTripsToGlobalEdges) {
  const auto adj = serving_graph<double>(80, 900, 21, ModelKind::kVA);
  const NeighborSampler sampler(4, 3);
  const index_t seed_vertex = 42;
  const auto net = sampler.sample(adj, seed_vertex, 7);

  // Seed-local numbering: the seed is local index 0; levels are nested
  // prefixes; local ids are unique.
  ASSERT_EQ(net.vertices.front(), seed_vertex);
  ASSERT_EQ(net.level_sizes.size(), 4u);
  EXPECT_EQ(net.level_sizes[0], 1);
  for (std::size_t t = 1; t < net.level_sizes.size(); ++t) {
    EXPECT_GE(net.level_sizes[t], net.level_sizes[t - 1]);
  }
  EXPECT_EQ(net.level_sizes.back(), net.num_vertices());
  auto uniq = net.vertices;
  std::sort(uniq.begin(), uniq.end());
  EXPECT_EQ(std::adjacent_find(uniq.begin(), uniq.end()), uniq.end());

  // Round-trip: every local edge maps back to a global edge with the same
  // value, and each local dst row (mapped to global) is a subsequence of
  // the global CSR row in the SAME ORDER — the property that makes per-row
  // reductions order-identical between ego net and full graph.
  for (std::size_t i = 0; i < net.blocks.size(); ++i) {
    const auto& b = net.blocks[i];
    for (index_t d = 0; d < net.dst_size(i); ++d) {
      const index_t gd = net.vertices[static_cast<std::size_t>(d)];
      index_t cursor = adj.row_begin(gd);
      for (index_t e = b.row_begin(d); e < b.row_end(d); ++e) {
        const index_t gc =
            net.vertices[static_cast<std::size_t>(b.col_at(e))];
        while (cursor < adj.row_end(gd) && adj.col_at(cursor) != gc) ++cursor;
        ASSERT_LT(cursor, adj.row_end(gd))
            << "sampled edge not found in order in the global row";
        EXPECT_EQ(b.val_at(e), adj.val_at(cursor));
        ++cursor;
      }
    }
  }
}

template <typename T>
bool same_csr(const CsrMatrix<T>& a, const CsrMatrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  for (index_t r = 0; r < a.rows(); ++r) {
    if (a.row_begin(r) != b.row_begin(r) || a.row_end(r) != b.row_end(r)) {
      return false;
    }
    for (index_t e = a.row_begin(r); e < a.row_end(r); ++e) {
      if (a.col_at(e) != b.col_at(e) || a.val_at(e) != b.val_at(e)) {
        return false;
      }
    }
  }
  return true;
}

TEST(ServingSampler, ReplaysExactlyFromSeed) {
  const auto adj = serving_graph<double>(70, 800, 31, ModelKind::kVA);
  const NeighborSampler sampler(3, 2);
  const auto a = sampler.sample(adj, 12, 1234);
  const auto b = sampler.sample(adj, 12, 1234);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.level_sizes, b.level_sizes);
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_TRUE(same_csr(a.blocks[i], b.blocks[i]));
  }
  const auto c = sampler.sample(adj, 12, 1235);
  bool any_diff = c.vertices != a.vertices;
  for (std::size_t i = 0; !any_diff && i < a.blocks.size(); ++i) {
    any_diff = !same_csr(a.blocks[i], c.blocks[i]);
  }
  EXPECT_TRUE(any_diff) << "different seeds should sample differently";
}

TEST(ServingSampler, RequestSeedDerivesFromIdNotThread) {
  // Pure function of (base, id); distinct ids give distinct streams.
  EXPECT_EQ(derive_request_seed(7, 0), derive_request_seed(7, 0));
  EXPECT_NE(derive_request_seed(7, 0), derive_request_seed(7, 1));
  EXPECT_NE(derive_request_seed(7, 0), derive_request_seed(8, 0));

  const auto adj = serving_graph<double>(50, 500, 41, ModelKind::kVA);
  const NeighborSampler sampler(2, 2, /*base_seed=*/77);
  const auto via_request = sampler.sample_for_request<double>(adj, 9, 5);
  const auto via_seed = sampler.sample(adj, 9, derive_request_seed(77, 5));
  EXPECT_EQ(via_request.vertices, via_seed.vertices);
}

// ---- queue / batch window -------------------------------------------------

TEST(ServingQueue, MaxBatchClosesBatchInFifoOrder) {
  RequestQueue<float> q(64);
  for (std::uint64_t i = 0; i < 5; ++i) {
    InferenceRequest<float> r;
    r.id = i;
    ASSERT_TRUE(q.try_push(std::move(r)));
  }
  std::vector<InferenceRequest<float>> batch;
  ASSERT_TRUE(q.pop_batch(3, std::chrono::nanoseconds(0), batch));
  ASSERT_EQ(batch.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(batch[i].id, i);
  ASSERT_TRUE(q.pop_batch(3, std::chrono::nanoseconds(0), batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 3u);
  EXPECT_EQ(batch[1].id, 4u);
}

TEST(ServingQueue, WindowCoalescesLateArrivals) {
  RequestQueue<float> q(64);
  {
    InferenceRequest<float> r;
    r.id = 0;
    ASSERT_TRUE(q.try_push(std::move(r)));
  }
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    InferenceRequest<float> r;
    r.id = 1;
    ASSERT_TRUE(q.try_push(std::move(r)));
  });
  std::vector<InferenceRequest<float>> batch;
  // A generous 2 s window: the batch must wait for the late arrival and
  // contain both, in arrival order.
  ASSERT_TRUE(q.pop_batch(2, std::chrono::seconds(2), batch));
  producer.join();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
}

TEST(ServingQueue, ZeroWindowFlushesWhatIsQueued) {
  RequestQueue<float> q(64);
  for (std::uint64_t i = 0; i < 2; ++i) {
    InferenceRequest<float> r;
    r.id = i;
    ASSERT_TRUE(q.try_push(std::move(r)));
  }
  std::vector<InferenceRequest<float>> batch;
  ASSERT_TRUE(q.pop_batch(16, std::chrono::nanoseconds(0), batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ServingQueue, CloseWithoutDrainReturnsLeftovers) {
  RequestQueue<float> q(64);
  for (std::uint64_t i = 0; i < 4; ++i) {
    InferenceRequest<float> r;
    r.id = i;
    ASSERT_TRUE(q.try_push(std::move(r)));
  }
  auto leftovers = q.close(/*drain=*/false);
  ASSERT_EQ(leftovers.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(leftovers[i].id, i);
  std::vector<InferenceRequest<float>> batch;
  EXPECT_FALSE(q.pop_batch(4, std::chrono::nanoseconds(0), batch));
  InferenceRequest<float> r;
  EXPECT_FALSE(q.push(std::move(r)));
}

TEST(ServingQueue, CloseWithDrainServesQueuedThenStops) {
  RequestQueue<float> q(64);
  for (std::uint64_t i = 0; i < 3; ++i) {
    InferenceRequest<float> r;
    r.id = i;
    ASSERT_TRUE(q.try_push(std::move(r)));
  }
  EXPECT_TRUE(q.close(/*drain=*/true).empty());
  std::vector<InferenceRequest<float>> batch;
  ASSERT_TRUE(q.pop_batch(8, std::chrono::seconds(1), batch));
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_FALSE(q.pop_batch(8, std::chrono::nanoseconds(0), batch));
}

// ---- cache ----------------------------------------------------------------

TEST(ServingCache, ExactHitMissEvictionAccounting) {
  VertexCache<float> cache(/*capacity=*/2, /*num_shards=*/1);
  float row[2];
  auto loader = [](index_t v, float* dst) {
    dst[0] = static_cast<float>(v);
    dst[1] = static_cast<float>(v) * 2.0f;
  };
  EXPECT_FALSE(cache.fetch(10, row, 2, loader));  // miss
  EXPECT_TRUE(cache.fetch(10, row, 2, loader));   // hit
  EXPECT_EQ(row[0], 10.0f);
  EXPECT_EQ(row[1], 20.0f);
  EXPECT_FALSE(cache.fetch(11, row, 2, loader));  // miss
  EXPECT_FALSE(cache.fetch(12, row, 2, loader));  // miss, evicts 10 (LRU)
  EXPECT_FALSE(cache.fetch(10, row, 2, loader));  // miss again, evicts 11
  EXPECT_TRUE(cache.fetch(12, row, 2, loader));   // still resident
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServingCache, LruRefreshOnHitProtectsHotRows) {
  VertexCache<float> cache(2, 1);
  float row[1];
  auto loader = [](index_t v, float* dst) { dst[0] = static_cast<float>(v); };
  cache.fetch(1, row, 1, loader);  // miss: {1}
  cache.fetch(2, row, 1, loader);  // miss: {2, 1}
  cache.fetch(1, row, 1, loader);  // hit, refreshes 1: {1, 2}
  cache.fetch(3, row, 1, loader);  // miss, evicts LRU = 2
  EXPECT_TRUE(cache.fetch(1, row, 1, loader)) << "hot row must survive";
  EXPECT_FALSE(cache.fetch(2, row, 1, loader)) << "cold row must be gone";
}

TEST(ServingCache, InvalidateDropsRowsKeepsCounters) {
  VertexCache<float> cache(8, 2);
  float row[1];
  auto loader = [](index_t v, float* dst) { dst[0] = static_cast<float>(v); };
  cache.fetch(1, row, 1, loader);
  cache.fetch(1, row, 1, loader);
  const auto before = cache.stats();
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.fetch(1, row, 1, loader)) << "post-invalidate is a miss";
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
}

// ---- batched forward == sequential forward, bitwise -----------------------

class ServingBitwise : public ::testing::TestWithParam<ModelKind> {};

// GAT also runs with 3 concatenated hidden heads and 2 averaged output
// heads, so the between-layer compaction gathers rows 3 heads wide.
TEST_P(ServingBitwise, BatchedForwardEqualsSequentialBitwise) {
  const ModelKind kind = GetParam();
  const auto adj = serving_graph<float>(90, 1100, 61, kind);
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = 12;
  cfg.layer_widths = {10, 6};
  cfg.seed = 3;
  std::vector<GnnConfig> configs = {cfg};
  if (kind == ModelKind::kGAT) {
    cfg.heads = 3;
    cfg.out_heads = 2;
    configs.push_back(cfg);
  }
  const auto x = testing::random_dense<float>(90, 12, 8);
  const NeighborSampler sampler(4, 2, /*base_seed=*/123);

  for (const GnnConfig& config : configs) {
    const GnnModel<float> model(config);
    const std::string label = std::string(to_string(kind)) + " heads " +
                              std::to_string(config.heads) + "x" +
                              std::to_string(config.out_heads);
    // A batch of 6 requests (with a repeated vertex: same vertex, different
    // request id, different sample) through the batched path...
    const std::vector<index_t> vertices = {3, 40, 3, 88, 17, 55};
    std::vector<SampledEgoNet<float>> nets;
    for (std::size_t r = 0; r < vertices.size(); ++r) {
      nets.push_back(sampler.sample_for_request<float>(
          adj, vertices[r], static_cast<std::uint64_t>(r)));
    }
    std::vector<const SampledEgoNet<float>*> ptrs;
    for (const auto& n : nets) ptrs.push_back(&n);
    const BatchBlocks<float> bb =
        serve::build_batch(std::span<const SampledEgoNet<float>* const>(ptrs));
    Workspace<float> ws;
    DenseMatrix<float> x0(static_cast<index_t>(bb.input_vertices.size()), 12);
    gather_rows(x, std::span<const index_t>(bb.input_vertices), x0);
    DenseMatrix<float> out;
    serve::forward_batch(model, bb, x0, ws, out);
    ASSERT_EQ(out.rows(), static_cast<index_t>(vertices.size()));
    ASSERT_EQ(out.cols(), 6) << label;

    // ...must match each request run alone, bit for bit.
    Workspace<float> ws2;
    for (std::size_t r = 0; r < vertices.size(); ++r) {
      const auto solo = serve::serve_sequential(
          model, adj, x, sampler, vertices[r],
          derive_request_seed(123, static_cast<std::uint64_t>(r)), ws2);
      ASSERT_EQ(solo.size(), static_cast<std::size_t>(out.cols()));
      const auto row = out.row(static_cast<index_t>(r));
      for (std::size_t j = 0; j < solo.size(); ++j) {
        EXPECT_EQ(row[j], solo[j])
            << label << " request " << r << " element " << j
            << " differs between batched and sequential";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServingBitwise,
                         ::testing::Values(ModelKind::kVA, ModelKind::kAGNN,
                                           ModelKind::kGAT, ModelKind::kGCN,
                                           ModelKind::kGIN),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

// ---- end-to-end server ----------------------------------------------------

TEST(ServingServer, RepliesMatchSequentialOracleBitwise) {
  const auto adj = serving_graph<float>(100, 1200, 71, ModelKind::kGAT);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 8;
  cfg.layer_widths = {8, 5};
  const GnnModel<float> model(cfg);
  const auto x = testing::random_dense<float>(100, 8, 9);

  ServeConfig sc;
  sc.num_threads = 2;
  sc.max_batch = 8;
  sc.batch_window = std::chrono::milliseconds(2);
  sc.fanout = 5;
  sc.sample_seed = 99;
  serve::InferenceServer<float> server(model, adj, x, sc);

  std::vector<std::future<InferenceReply<float>>> futures;
  std::vector<index_t> vertices;
  Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    vertices.push_back(static_cast<index_t>(rng.next_bounded(100)));
    futures.push_back(server.submit(vertices.back()));
  }

  const NeighborSampler oracle(sc.fanout, 2, sc.sample_seed);
  Workspace<float> ws;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto reply = futures[i].get();
    ASSERT_EQ(reply.status, serve::ReplyStatus::kOk);
    EXPECT_EQ(reply.request_id, i) << "ids are assigned in submission order";
    EXPECT_EQ(reply.vertex, vertices[i]);
    EXPECT_GE(reply.batch_size, 1);
    EXPECT_GT(reply.sampled_vertices, 0);
    EXPECT_GT(reply.latency_ns, 0u);
    const auto solo =
        serve::serve_sequential(model, adj, x, oracle, vertices[i],
                                reply.sample_seed, ws);
    ASSERT_EQ(solo.size(), reply.output.size());
    for (std::size_t j = 0; j < solo.size(); ++j) {
      EXPECT_EQ(reply.output[j], solo[j]);
    }
  }
  server.stop(/*drain=*/true);
  EXPECT_EQ(server.completed(), 40u);
  EXPECT_GT(server.cache().stats().hits + server.cache().stats().misses, 0u);
}

TEST(ServingServer, OutputsIdenticalAcrossThreadCounts) {
  const auto adj = serving_graph<float>(80, 900, 81, ModelKind::kAGNN);
  GnnConfig cfg;
  cfg.kind = ModelKind::kAGNN;
  cfg.in_features = 6;
  cfg.layer_widths = {6, 4};
  const GnnModel<float> model(cfg);
  const auto x = testing::random_dense<float>(80, 6, 10);

  std::vector<index_t> vertices;
  Rng rng(12);
  for (int i = 0; i < 24; ++i) {
    vertices.push_back(static_cast<index_t>(rng.next_bounded(80)));
  }

  auto run = [&](std::size_t threads) {
    ServeConfig sc;
    sc.num_threads = threads;
    sc.max_batch = 4;
    sc.batch_window = std::chrono::milliseconds(1);
    sc.fanout = 3;
    sc.sample_seed = 7;
    serve::InferenceServer<float> server(model, adj, x, sc);
    std::vector<std::future<InferenceReply<float>>> futures;
    for (index_t v : vertices) futures.push_back(server.submit(v));
    std::vector<std::vector<float>> outputs;
    for (auto& f : futures) {
      auto reply = f.get();
      EXPECT_EQ(reply.status, serve::ReplyStatus::kOk);
      outputs.push_back(reply.output);
    }
    return outputs;
  };

  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i])
        << "request " << i << ": reply depends on thread count";
  }
}

TEST(ServingServer, SubmitAfterStopIsRejected) {
  const auto adj = serving_graph<float>(20, 60, 91, ModelKind::kVA);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 4;
  cfg.layer_widths = {4};
  const GnnModel<float> model(cfg);
  const auto x = testing::random_dense<float>(20, 4, 2);
  ServeConfig sc;
  sc.num_threads = 1;
  serve::InferenceServer<float> server(model, adj, x, sc);
  server.stop(/*drain=*/true);
  auto reply = server.submit(3).get();
  EXPECT_EQ(reply.status, serve::ReplyStatus::kRejected);
  auto maybe = server.try_submit(3);
  ASSERT_TRUE(maybe.has_value());
  EXPECT_EQ(maybe->get().status, serve::ReplyStatus::kRejected);
}

// ---- zipf load shape ------------------------------------------------------

TEST(ServingZipf, SkewsMassTowardFewVertices) {
  serve::ZipfSampler zipf(1000, 1.1, /*perm_seed=*/3);
  Rng rng(5);
  std::vector<int> counts(1000, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const index_t v = zipf.sample(rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
    ++counts[static_cast<std::size_t>(v)];
  }
  std::sort(counts.begin(), counts.end(), std::greater<>());
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[static_cast<std::size_t>(i)];
  // Under s=1.1 the top-10 ranks carry >40% of the mass; uniform would
  // give 1%. Generous margin keeps this deterministic-seed test robust.
  EXPECT_GT(top10, draws / 4);
}

}  // namespace
}  // namespace agnn
