// Observability subsystem tests: span balance and per-rank timestamp order,
// Chrome-JSON well-formedness, drop-newest buffer policy, metrics registry
// semantics, and the zero-allocation guarantee for hot-path recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"

// ---- allocation counting (this binary only) --------------------------------
// Counts every global operator new, the nothrow forms included. The
// zero-allocation test records spans between two reads of the counter;
// everything else in the binary may allocate freely. Every form allocates
// with malloc and every delete frees with free, so no allocation made here
// is released by the sanitizer runtime's operator delete, or the reverse
// (std::stable_sort, which the graph builder runs, takes its buffer from the
// nothrow form).
//
// GCC pairs the replaced malloc-backed operator new with std::free at inline
// sites and warns spuriously; the replacement set below is self-consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<std::uint64_t> g_news{0};

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace agnn {
namespace {

using obs::SpanCategory;
using obs::TraceEvent;
using obs::Tracer;

// RAII: enable tracing with a clean slate, disable on exit. Caps per-thread
// buffers at 64k events so the many short-lived rank threads this binary
// spawns don't each pin the 1M-event default.
struct ScopedTracing {
  ScopedTracing() {
    Tracer::instance().set_buffer_capacity(1u << 16);
    Tracer::instance().clear();
    Tracer::set_enabled(true);
  }
  ~ScopedTracing() { Tracer::set_enabled(false); }
};

std::vector<TraceEvent> events_of_rank(const std::vector<TraceEvent>& all,
                                       std::int32_t rank) {
  std::vector<TraceEvent> out;
  for (const auto& e : all) {
    if (e.rank == rank) out.push_back(e);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

// B/E events of one rank must nest like parentheses, with matching names.
void expect_balanced(const std::vector<TraceEvent>& rank_events) {
  std::vector<const TraceEvent*> stack;
  for (const auto& e : rank_events) {
    if (e.phase == 'B') {
      stack.push_back(&e);
    } else if (e.phase == 'E') {
      ASSERT_FALSE(stack.empty()) << "E without matching B: " << e.name;
      EXPECT_STREQ(stack.back()->name, e.name) << "mismatched span nesting";
      EXPECT_LE(stack.back()->ts_ns, e.ts_ns) << "span ends before it begins";
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed spans remain";
}

TEST(TraceSpans, BalancedAndMonotonicPerRank) {
  ScopedTracing tracing;

  const auto el = graph::generate_kronecker({.scale = 5, .edges = 220, .seed = 3});
  graph::BuildOptions bopt;
  bopt.add_self_loops = true;
  const auto g = graph::build_graph<double>(el, bopt);
  const index_t n = g.num_vertices();
  DenseMatrix<double> x(n, 6);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < 6; ++j) x(i, j) = 0.1 * static_cast<double>(i + j);
  }
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 2;

  const int p = 4;
  comm::SpmdRuntime::run(p, [&](comm::Communicator& world) {
    GnnConfig cfg;
    cfg.kind = ModelKind::kGAT;
    cfg.in_features = 6;
    cfg.layer_widths = {8, 2};
    cfg.seed = 11;
    GnnModel<double> model(cfg);
    dist::DistEngine<double> engine(world, g.adj, model, dist::DistPolicy::k1_5D);
    SgdOptimizer<double> opt(0.05);
    engine.train_step(x, labels, opt);
  });

  const auto all = Tracer::instance().collect();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(Tracer::instance().dropped_events(), 0u);

  bool saw_kernel = false, saw_collective = false, saw_superstep = false,
       saw_phase = false;
  for (int r = 0; r < p; ++r) {
    const auto ev = events_of_rank(all, r);
    ASSERT_FALSE(ev.empty()) << "rank " << r << " recorded nothing";
    expect_balanced(ev);
    // Sorted by ts above; the sort must not have had to reorder same-thread
    // events (steady clock is monotonic), so ts are non-decreasing.
    for (std::size_t i = 1; i < ev.size(); ++i) {
      EXPECT_LE(ev[i - 1].ts_ns, ev[i].ts_ns);
    }
    for (const auto& e : ev) {
      saw_kernel |= e.category == SpanCategory::kKernel;
      saw_collective |= e.category == SpanCategory::kCollective;
      saw_phase |= e.category == SpanCategory::kPhase;
      if (e.category == SpanCategory::kSuperstep) {
        EXPECT_EQ(e.phase, 'i');
        saw_superstep = true;
      }
    }
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_collective);
  EXPECT_TRUE(saw_superstep);
  EXPECT_TRUE(saw_phase);
}

// The dense ops are byte-tagged kernel spans: a traced GAT layer's forward
// runs H' = H W and the activation, and its backward dW = H^T dH' and
// Gamma = dH' W^T.
TEST(TraceSpans, DenseOpsEmitByteTaggedKernelSpans) {
  const auto el = graph::generate_kronecker({.scale = 5, .edges = 220, .seed = 3});
  graph::BuildOptions bopt;
  bopt.add_self_loops = true;
  const auto g = graph::build_graph<double>(el, bopt);
  const index_t n = g.num_vertices();
  DenseMatrix<double> x(n, 6), d_out(n, 4);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < 6; ++j) x(i, j) = 0.1 * static_cast<double>(i - j);
    for (index_t j = 0; j < 4; ++j) d_out(i, j) = 0.01 * static_cast<double>(i + j);
  }
  Rng rng(13);
  const Layer<double> layer(ModelKind::kGAT, 6, 4, Activation::kRelu, rng);
  LayerCache<double> cache;

  ScopedTracing tracing;
  layer.forward(g.adj, x, &cache);
  layer.backward(g.adj, g.adj.transposed(), cache, d_out);

  std::map<std::string, int> spans, spans_without_bytes;
  for (const auto& e : Tracer::instance().collect()) {
    if (e.phase != 'B' || e.category != SpanCategory::kKernel) continue;
    ++spans[e.name];
    if (e.bytes == 0) ++spans_without_bytes[e.name];
  }
  for (const char* name : {"matmul", "matmul_tn", "matmul_nt", "activate"}) {
    EXPECT_GT(spans[name], 0) << "no " << name << " span";
    EXPECT_EQ(spans_without_bytes[name], 0) << name << " spans without bytes";
  }
}

// ---- minimal JSON parser (validation only) ---------------------------------
// Recursive descent over the grammar; returns false on any syntax error.
struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s.compare(i, n, t) != 0) return false;
    i += n;
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    if (s[i] != '{') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == '}') { ++i; return true; }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    if (i >= s.size() || s[i] != '}') return false;
    ++i;
    return true;
  }
  bool array() {
    if (s[i] != '[') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == ']') { ++i; return true; }
    while (true) {
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    if (i >= s.size() || s[i] != ']') return false;
    ++i;
    return true;
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

TEST(TraceJson, ExportIsWellFormed) {
  ScopedTracing tracing;
  comm::SpmdRuntime::run(2, [&](comm::Communicator& world) {
    std::vector<double> buf{1.0, 2.0, static_cast<double>(world.rank())};
    world.allreduce_sum(std::span<double>(buf));
    world.broadcast(std::span<double>(buf), 0);
  });
  {
    AGNN_TRACE_SCOPE("driver_span", kPhase);
  }
  Tracer::set_enabled(false);

  std::ostringstream os;
  Tracer::instance().write_chrome_json(os);
  const std::string json = os.str();

  JsonChecker check{json};
  EXPECT_TRUE(check.document()) << "invalid JSON near byte " << check.i;

  // Spot-check the trace_event schema and the rank -> thread mapping.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"collective\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver_span\""), std::string::npos);
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceJson, AbortMidSuperstepStaysWellFormed) {
  // A rank torn down by an injected fault can leave B events without their
  // E (here forced with a raw begin that never ends); the export must still
  // be valid JSON with every span closed — the writer synthesizes the Es.
  ScopedTracing tracing;
  comm::RunOptions opts;
  opts.faults = comm::FaultPlan::parse("abort@r1:s4");
  opts.timeout = std::chrono::milliseconds(250);
  std::atomic<int> errors{0};
  comm::SpmdRuntime::run(3, opts, [&](comm::Communicator& world) {
    std::vector<double> buf(8, 1.0);
    try {
      for (int i = 0; i < 10; ++i) {
        AGNN_TRACE_SCOPE("chaos.step", kPhase);
        world.allreduce_sum(std::span<double>(buf));
      }
    } catch (const comm::CommError&) {
      Tracer::instance().begin("chaos.unwound", SpanCategory::kPhase, 0);
      errors.fetch_add(1);
    }
  });
  EXPECT_EQ(errors.load(), 3);
  Tracer::set_enabled(false);

  std::ostringstream os;
  Tracer::instance().write_chrome_json(os);
  const std::string json = os.str();

  JsonChecker check{json};
  EXPECT_TRUE(check.document()) << "invalid JSON near byte " << check.i;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""))
      << "unbalanced spans in export";
  // The injected fault and the open spans both made it into the trace.
  EXPECT_NE(json.find("\"name\":\"fault.abort\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chaos.unwound\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
}

TEST(TraceJson, SynthesizedEndsCloseNestedOpenSpans) {
  ScopedTracing tracing;
  // Two spans left open, nested, on a non-rank thread.
  std::thread t([] {
    obs::RankBinding bind(5);
    Tracer::instance().begin("outer_open", SpanCategory::kPhase, 0);
    Tracer::instance().begin("inner_open", SpanCategory::kKernel, 0);
  });
  t.join();
  Tracer::set_enabled(false);

  std::ostringstream os;
  Tracer::instance().write_chrome_json(os);
  const std::string json = os.str();
  JsonChecker check{json};
  EXPECT_TRUE(check.document()) << "invalid JSON near byte " << check.i;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 2u);
  // Synthesized closes come innermost-first, so the stream stays nestable:
  // the last mention of the inner span (its E) precedes the outer span's E.
  EXPECT_LT(json.rfind("\"name\":\"inner_open\""),
            json.rfind("\"name\":\"outer_open\""));
}

TEST(TraceBuffer, DropNewestPreservesBalance) {
  ScopedTracing tracing;
  Tracer::instance().set_buffer_capacity(64);  // smallest allowed

  // A fresh thread gets a fresh (tiny) buffer; overflow it.
  std::thread t([] {
    obs::RankBinding bind(17);
    for (int i = 0; i < 500; ++i) {
      AGNN_TRACE_SCOPE("outer", kKernel);
      AGNN_TRACE_SCOPE("inner", kKernel);
    }
  });
  t.join();
  Tracer::instance().set_buffer_capacity(1u << 16);  // restore test default

  const auto ev = events_of_rank(Tracer::instance().collect(), 17);
  EXPECT_FALSE(ev.empty());
  EXPECT_LE(ev.size(), 64u);
  EXPECT_GT(Tracer::instance().dropped_events(), 0u);
  expect_balanced(ev);
}

// AGNN_TRACE_BUFFER is parsed strictly: a value that is not exactly a
// positive decimal integer throws, naming the variable.
TEST(TraceBuffer, CapacityEnvIsParsedStrictly) {
  for (const char* bad : {"64k", "abc", "0", "-1", " 8", "2.5"}) {
    ASSERT_EQ(setenv("AGNN_TRACE_BUFFER", bad, 1), 0);
    try {
      obs::trace_buffer_capacity_from_env();
      ADD_FAILURE() << "AGNN_TRACE_BUFFER='" << bad << "' must throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("AGNN_TRACE_BUFFER"), std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(setenv("AGNN_TRACE_BUFFER", "100000", 1), 0);
  EXPECT_EQ(obs::trace_buffer_capacity_from_env(), 100000u);
  ASSERT_EQ(setenv("AGNN_TRACE_BUFFER", "", 1), 0);
  EXPECT_EQ(obs::trace_buffer_capacity_from_env(), 65536u);
  unsetenv("AGNN_TRACE_BUFFER");
  EXPECT_EQ(obs::trace_buffer_capacity_from_env(), 65536u);
}

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.counter("comm.bytes").add(100);
  reg.counter("comm.bytes").add(23);
  EXPECT_EQ(reg.counter("comm.bytes").value(), 123u);

  reg.gauge("model.loss").set(0.5);
  reg.gauge("model.loss").set(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("model.loss").value(), 0.25);

  // Same name, same kind: the same metric object.
  EXPECT_EQ(&reg.counter("comm.bytes"), &reg.counter("comm.bytes"));

  const std::string text = reg.dump_text();
  EXPECT_NE(text.find("comm.bytes 123"), std::string::npos);
  EXPECT_NE(text.find("model.loss 0.25"), std::string::npos);

  const std::string json = reg.dump_json();
  JsonChecker check{json};
  EXPECT_TRUE(check.document()) << "invalid JSON near byte " << check.i;
  EXPECT_NE(json.find("\"comm.bytes\":123"), std::string::npos);
}

TEST(Metrics, NameCollisionAcrossKindsFails) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::logic_error);
}

TEST(Metrics, ImportersCoverExistingStats) {
  obs::MetricsRegistry reg;
  WorkspaceStats ws;
  ws.acquires = 10;
  ws.pool_hits = 9;
  ws.pool_misses = 1;
  ws.resident_bytes = 4096;
  obs::import_workspace_stats(reg, ws, "rank0.workspace");
  EXPECT_EQ(reg.counter("rank0.workspace.pool_hits").value(), 9u);
  EXPECT_DOUBLE_EQ(reg.gauge("rank0.workspace.hit_rate").value(), 0.9);

  comm::VolumeSnapshot snap{1000, 5, 7, 0.25};
  obs::import_volume_snapshot(reg, snap, "rank0.comm");
  EXPECT_EQ(reg.counter("rank0.comm.bytes_sent").value(), 1000u);
  EXPECT_EQ(reg.counter("rank0.comm.supersteps").value(), 7u);
  EXPECT_DOUBLE_EQ(reg.gauge("rank0.comm.compute_seconds").value(), 0.25);

  obs::import_cost_model(reg, 0.1, 0.2, 0.3, "run");
  EXPECT_DOUBLE_EQ(reg.gauge("run.modeled_total_seconds").value(), 0.3);
}

TEST(TraceHotPath, SpanRecordingAllocatesNothing) {
  ScopedTracing tracing;
  {
    // Warm-up: the thread's buffer is created on the first event.
    AGNN_TRACE_SCOPE("warmup", kKernel);
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    AGNN_TRACE_SCOPE("hot", kKernel);
    obs::superstep_mark(64, static_cast<std::uint64_t>(i));
  }
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "span recording allocated on the hot path";
}

TEST(TraceReport, FlagsComputeCommDeviation) {
  // Synthetic timeline on one rank: a 10 ms kernel followed by a collective
  // whose modeled time is ~1 us -> ratio >> 2, must be flagged; then a
  // 1 us kernel before a collective modeled at ~1 us -> unflagged.
  std::vector<TraceEvent> ev;
  auto push = [&](const char* name, std::uint64_t ts, char ph,
                  SpanCategory cat, std::uint64_t bytes,
                  std::uint64_t step) {
    ev.push_back(TraceEvent{name, ts, bytes, step, 0, cat, ph});
  };
  push("spmm", 0, 'B', SpanCategory::kKernel, 0, 0);
  push("spmm", 10'000'000, 'E', SpanCategory::kKernel, 0, 0);
  push("big_gap", 10'000'000, 'B', SpanCategory::kCollective, 100, 0);
  push("superstep", 10'000'500, 'i', SpanCategory::kSuperstep, 100, 1);
  push("big_gap", 10'001'000, 'E', SpanCategory::kCollective, 0, 0);

  push("spmm", 20'000'000, 'B', SpanCategory::kKernel, 0, 0);
  push("spmm", 20'001'500, 'E', SpanCategory::kKernel, 0, 0);
  push("balanced", 20'002'000, 'B', SpanCategory::kCollective, 100, 0);
  push("superstep", 20'002'500, 'i', SpanCategory::kSuperstep, 100, 2);
  push("balanced", 20'003'000, 'E', SpanCategory::kCollective, 0, 0);

  obs::TraceReport report(comm::CostModel{1.5e-6, 1.0 / 10.0e9}, 2.0);
  const auto rows = report.build(ev);
  ASSERT_EQ(rows.size(), 2u);

  std::map<std::string, obs::TraceReportRow> by_name;
  for (const auto& r : rows) by_name[r.name] = r;

  ASSERT_TRUE(by_name.count("big_gap"));
  EXPECT_TRUE(by_name["big_gap"].flagged);
  EXPECT_NEAR(by_name["big_gap"].compute_seconds, 0.010, 1e-9);
  EXPECT_EQ(by_name["big_gap"].supersteps, 1u);

  ASSERT_TRUE(by_name.count("balanced"));
  EXPECT_FALSE(by_name["balanced"].flagged);
  EXPECT_NEAR(by_name["balanced"].compute_seconds, 1.5e-6, 1e-12);

  std::ostringstream os;
  const std::size_t flagged = report.print(os, rows);
  EXPECT_EQ(flagged, 1u);
  EXPECT_NE(os.str().find("big_gap"), std::string::npos);
}

TEST(TraceBuffer, DropCountersExportToRegistry) {
  ScopedTracing tracing;
  Tracer::instance().set_buffer_capacity(64);
  std::thread t([] {
    obs::RankBinding bind(23);
    for (int i = 0; i < 500; ++i) {
      AGNN_TRACE_SCOPE("overflow", kKernel);
    }
  });
  t.join();
  Tracer::instance().set_buffer_capacity(1u << 16);
  Tracer::set_enabled(false);

  obs::MetricsRegistry reg;
  const std::uint64_t total = Tracer::instance().export_drop_metrics(reg);
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, Tracer::instance().dropped_events());
  const obs::Counter* c = reg.find_counter("trace.dropped_spans");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), total);
  // At least one per-thread breakdown entry exists and they sum to the total.
  std::uint64_t per_thread = 0;
  bool any = false;
  for (std::size_t i = 0; i < 256; ++i) {
    if (const obs::Counter* ct =
            reg.find_counter("trace.dropped_spans.t" + std::to_string(i))) {
      per_thread += ct->value();
      any = true;
    }
  }
  EXPECT_TRUE(any);
  EXPECT_EQ(per_thread, total);

  // Watermark semantics: re-export never moves the counters backwards.
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().export_drop_metrics(reg), 0u);
  EXPECT_EQ(reg.find_counter("trace.dropped_spans")->value(), total);
}

TEST(TraceReport, ExportFlagsBridgesToGauges) {
  std::vector<TraceEvent> ev;
  auto push = [&](const char* name, std::uint64_t ts, char ph,
                  SpanCategory cat, std::uint64_t bytes, std::uint64_t step) {
    ev.push_back(TraceEvent{name, ts, bytes, step, 0, cat, ph});
  };
  push("spmm", 0, 'B', SpanCategory::kKernel, 0, 0);
  push("spmm", 10'000'000, 'E', SpanCategory::kKernel, 0, 0);
  push("big_gap", 10'000'000, 'B', SpanCategory::kCollective, 100, 0);
  push("superstep", 10'000'500, 'i', SpanCategory::kSuperstep, 100, 1);
  push("big_gap", 10'001'000, 'E', SpanCategory::kCollective, 0, 0);

  obs::TraceReport report(comm::CostModel{1.5e-6, 1.0 / 10.0e9}, 2.0);
  const auto rows = report.build(ev);

  obs::MetricsRegistry reg;
  obs::TraceReport::export_flags(rows, reg);
  const obs::Gauge* n = reg.find_gauge("trace_report.flagged_rows");
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(n->value(), 1.0);
  const obs::Gauge* dev = reg.find_gauge("trace_report.deviation.big_gap");
  ASSERT_NE(dev, nullptr);
  EXPECT_GT(dev->value(), 2.0);

  // No flagged rows -> the count gauge says 0 and no deviation gauges appear.
  obs::MetricsRegistry clean;
  obs::TraceReport::export_flags({}, clean);
  EXPECT_DOUBLE_EQ(clean.find_gauge("trace_report.flagged_rows")->value(), 0.0);
  EXPECT_EQ(clean.find_gauge("trace_report.deviation.big_gap"), nullptr);
}

TEST(Metrics, HistogramIsAThirdKind) {
  obs::MetricsRegistry reg;
  reg.observe("lat.ns", 100);
  reg.observe("lat.ns", 200);
  EXPECT_EQ(reg.histogram("lat.ns").count(), 2u);
  // Kind collision in both directions.
  EXPECT_THROW(reg.counter("lat.ns"), std::logic_error);
  EXPECT_THROW(reg.gauge("lat.ns"), std::logic_error);
  reg.counter("c");
  EXPECT_THROW(reg.histogram("c"), std::logic_error);
  // find_* is kind-checked and never registers.
  EXPECT_NE(reg.find_histogram("lat.ns"), nullptr);
  EXPECT_EQ(reg.find_counter("lat.ns"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, CounterIsAddOnlyWithWatermark) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("water");
  c.set_max(100);
  EXPECT_EQ(c.value(), 100u);
  c.set_max(50);  // never backwards
  EXPECT_EQ(c.value(), 100u);
  c.set_max(150);
  EXPECT_EQ(c.value(), 150u);
  c.add(7);
  EXPECT_EQ(c.value(), 157u);
}

TEST(Metrics, ResetZeroesButKeepsReferences) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  obs::Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(2.5);
  h.record(1000);
  reg.reset();
  // Same objects, zeroed values — cached references stay valid.
  EXPECT_EQ(&reg.counter("c"), &c);
  EXPECT_EQ(&reg.gauge("g"), &g);
  EXPECT_EQ(&reg.histogram("h"), &h);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, DumpsAreDeterministicallyOrderedWithHistograms) {
  obs::MetricsRegistry reg;
  reg.observe("z.hist", 500);
  reg.counter("a.counter").add(1);
  reg.gauge("m.gauge").set(3.0);

  const std::string text = reg.dump_text();
  const auto pa = text.find("a.counter");
  const auto pm = text.find("m.gauge");
  const auto pz = text.find("z.hist");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pm, std::string::npos);
  ASSERT_NE(pz, std::string::npos);
  EXPECT_LT(pa, pm);
  EXPECT_LT(pm, pz);
  EXPECT_NE(text.find("count=1"), std::string::npos);  // histogram summary

  // Two dumps of the same state are byte-identical, and the JSON dump is
  // well-formed with the histogram as a nested object.
  EXPECT_EQ(reg.dump_text(), text);
  const std::string json = reg.dump_json();
  EXPECT_EQ(reg.dump_json(), json);
  JsonChecker check{json};
  EXPECT_TRUE(check.document()) << "invalid JSON near byte " << check.i;
  EXPECT_NE(json.find("\"z.hist\":{"), std::string::npos);
}

TEST(Quiesced, SnapshotMatchesRelaxedWhenQuiet) {
  comm::VolumeStats s;
  s.charge(1234, 5, 6);
  s.compute_ns.store(2'000'000'000ULL);
  const auto live = comm::snapshot(s);
  const auto q = comm::snapshot_quiesced(s);
  EXPECT_EQ(live.bytes_sent, q.bytes_sent);
  EXPECT_EQ(live.messages, q.messages);
  EXPECT_EQ(live.supersteps, q.supersteps);
  EXPECT_DOUBLE_EQ(q.compute_seconds, 2.0);
}

}  // namespace
}  // namespace agnn
