// The row-parallel kernel schedule: every sparse kernel in tensor/ hands
// each row to one OpenMP thread, which reduces it in edge order.
//
//   1. Thread-count sweep, TEST_P over team size x adversarial graph
//      family: every sparse and fused kernel's output at 1, 2 and 4
//      threads, and a repeated run, is bitwise equal to its output at 1
//      thread; the gathered SpMMs also equal transposed_into + SpMM.
//   2. Steady-state allocation audit for the kernels that keep per-thread
//      scratch, the dense GEMMs and activation loops included, and for a
//      whole Trainer::step of each model kind (this binary replaces global
//      operator new to count).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/activations.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "graph/reorder.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/fused.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

// ---- allocation counting (this binary only) --------------------------------
// Counts every global operator new, the nothrow forms included; the
// steady-state audit reads the counter around a window of kernel calls.
// Every form allocates with malloc and every delete frees with free, so no
// allocation made here is released by the sanitizer runtime's operator
// delete, or the reverse (std::stable_sort takes its buffer from the nothrow
// form).
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

using testing::random_dense;
using testing::ScopedThreads;

// ---- adversarial graph families --------------------------------------------
// One huge hub (star), a long uniform tail (chain), interleaved and trailing
// empty rows (isolated mix), a power-law degree distribution (Kronecker), and
// a dense-ish control.

enum Family : int {
  kFamilyStar = 0,
  kFamilyChain,
  kFamilyIsolated,
  kFamilyKronHub,
  kFamilyRandom,
  kFamilyCount,
};

const char* family_name(int f) {
  switch (f) {
    case kFamilyStar: return "star";
    case kFamilyChain: return "chain";
    case kFamilyIsolated: return "isolated";
    case kFamilyKronHub: return "kron_hub";
    case kFamilyRandom: return "random";
  }
  return "?";
}

CsrMatrix<double> family_graph(int family, std::uint64_t seed) {
  CooMatrix<double> coo;
  Rng rng(seed);
  switch (family) {
    case kFamilyStar: {
      // Hub row 0 with n-1 out-edges plus the reverse edges and self-loops:
      // the canonical one-row-dominates case.
      const index_t n = 61;
      coo.n_rows = coo.n_cols = n;
      for (index_t j = 1; j < n; ++j) {
        coo.push_back(0, j, rng.next_uniform(0.1, 1.0));
        coo.push_back(j, 0, rng.next_uniform(0.1, 1.0));
      }
      for (index_t i = 0; i < n; ++i) {
        coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
      }
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyChain: {
      // Degree <= 3 everywhere.
      const index_t n = 97;
      coo.n_rows = coo.n_cols = n;
      for (index_t i = 0; i + 1 < n; ++i) {
        coo.push_back(i, i + 1, rng.next_uniform(0.1, 1.0));
        coo.push_back(i + 1, i, rng.next_uniform(0.1, 1.0));
      }
      for (index_t i = 0; i < n; ++i) {
        coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
      }
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyIsolated: {
      // Random edges among the first third; the rest — including the final
      // rows — stay fully empty, so kernels must still write empty rows.
      const index_t n = 72, live = 24;
      coo.n_rows = coo.n_cols = n;
      for (index_t e = 0; e < 160; ++e) {
        const auto i = static_cast<index_t>(
            rng.next_bounded(static_cast<std::uint64_t>(live)));
        const auto j = static_cast<index_t>(
            rng.next_bounded(static_cast<std::uint64_t>(live)));
        coo.push_back(i, j, rng.next_uniform(0.1, 1.0));
      }
      coo.sum_duplicates();
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyKronHub: {
      graph::BuildOptions opt;
      opt.add_self_loops = true;
      auto g = graph::build_graph<double>(
          graph::generate_kronecker({.scale = 7, .edges = 1500, .seed = seed}),
          opt);
      auto a = g.adj;
      auto v = a.vals_mutable();
      for (auto& x : v) x = rng.next_uniform(0.1, 1.0);
      return a;
    }
    case kFamilyRandom:
    default:
      return testing::random_sparse<double>(64, 0.12, seed);
  }
}

// ---- 1. thread-count sweep ---------------------------------------------------

// Inputs shared by the sweep: a weighted adversarial graph and its
// transpose plus features, aggregation operands, attention score vectors,
// and the values of a matrix M with A's pattern (the gathered SpMMs
// compute M^T H).
struct SweepInputs {
  CsrMatrix<double> a, at;
  DenseMatrix<double> h;
  DenseMatrix<double> x;
  std::vector<double> s1, s2, row_scale, col_scale, m_vals;
};

SweepInputs make_inputs(int family) {
  SweepInputs in;
  in.a = family_graph(family, 137 + static_cast<std::uint64_t>(family));
  const index_t n = in.a.rows();
  in.h = random_dense<double>(n, 5, 139);
  in.x = random_dense<double>(n, 4, 149);
  Rng rng(151);
  in.s1.resize(static_cast<std::size_t>(n));
  in.s2.resize(static_cast<std::size_t>(n));
  in.row_scale.resize(static_cast<std::size_t>(n));
  in.col_scale.resize(static_cast<std::size_t>(n));
  for (auto& v : in.s1) v = rng.next_uniform(-1, 1);
  for (auto& v : in.s2) v = rng.next_uniform(-1, 1);
  for (auto& v : in.row_scale) v = rng.next_uniform(0.5, 2.0);
  for (auto& v : in.col_scale) v = rng.next_uniform(0.5, 2.0);
  in.at = in.a.transposed();
  in.m_vals.resize(static_cast<std::size_t>(in.a.nnz()));
  for (auto& v : in.m_vals) v = rng.next_uniform(-1, 1);
  return in;
}

// Every sparse and fused kernel's outputs for one input set, so the
// reference and the candidate runs share one code path.
struct SweepOutputs {
  DenseMatrix<double> spmm_out, acc_out, agg_min, agg_max, agg_mean;
  DenseMatrix<double> spmm_t, acc_t;
  DenseMatrix<double> fused_va, fused_gat;
  CsrMatrix<double> sddmm_out, sddmm_unw, scaled, softmax, softmax_dx;
  CsrMatrix<double> va, agnn, gat_scores, gat_psi;
  std::vector<double> row_sums;
};

SweepOutputs run_all_kernels(const SweepInputs& in) {
  SweepOutputs o;
  const double slope = 0.2;
  spmm(in.a, in.h, o.spmm_out);
  o.acc_out = random_dense<double>(in.a.rows(), in.h.cols(), 157);
  spmm_accumulate(in.a, in.h, o.acc_out);
  spmm_transposed<double>(in.at, in.m_vals, in.h, o.spmm_t);
  o.acc_t = random_dense<double>(in.at.rows(), in.h.cols(), 165);
  spmm_accumulate_transposed<double>(in.at, in.m_vals, in.h, o.acc_t);
  aggregate(in.a, in.h, Aggregation::kMin, o.agg_min);
  aggregate(in.a, in.h, Aggregation::kMax, o.agg_max);
  aggregate(in.a, in.h, Aggregation::kMean, o.agg_mean);
  sddmm(in.a, in.h, in.h, o.sddmm_out);
  sddmm_unweighted(in.a, in.h, in.h, o.sddmm_unw);
  scale_rows_cols<double>(in.a, in.row_scale, in.col_scale, o.scaled);
  sparse_row_sums(in.a, o.row_sums);
  // The softmax pair runs on the SDDMM scores, backward on a perturbed
  // upstream gradient.
  row_softmax(o.sddmm_out, o.softmax);
  {
    auto ds = o.softmax;
    auto v = ds.vals_mutable();
    Rng rng(163);
    for (auto& x : v) x = rng.next_uniform(-1, 1);
    row_softmax_backward(o.softmax, ds, o.softmax_dx);
  }
  psi_va(in.a, in.h, o.va);
  psi_agnn(in.a, in.h, o.agnn);
  psi_gat<double>(in.a, in.s1, in.s2, slope, o.gat_scores, o.gat_psi);
  fused_va_aggregate(in.a, in.h, in.x, o.fused_va);
  fused_gat_aggregate<double>(in.a, in.s1, in.s2, slope, in.x, o.fused_gat);
  return o;
}

// The 19 outputs as named value arrays.
std::vector<std::pair<const char*, std::span<const double>>> named_values(
    const SweepOutputs& o) {
  return {{"spmm", o.spmm_out.flat()},
          {"spmm_accumulate", o.acc_out.flat()},
          {"spmm_transposed", o.spmm_t.flat()},
          {"spmm_accumulate_transposed", o.acc_t.flat()},
          {"aggregate(min)", o.agg_min.flat()},
          {"aggregate(max)", o.agg_max.flat()},
          {"aggregate(mean)", o.agg_mean.flat()},
          {"fused_va_aggregate", o.fused_va.flat()},
          {"fused_gat_aggregate", o.fused_gat.flat()},
          {"sddmm", o.sddmm_out.vals()},
          {"sddmm_unweighted", o.sddmm_unw.vals()},
          {"scale_rows_cols", o.scaled.vals()},
          {"row_softmax", o.softmax.vals()},
          {"row_softmax_backward", o.softmax_dx.vals()},
          {"psi_va", o.va.vals()},
          {"psi_agnn", o.agnn.vals()},
          {"psi_gat scores", o.gat_scores.vals()},
          {"psi_gat psi", o.gat_psi.vals()},
          {"sparse_row_sums", o.row_sums}};
}

void expect_bitwise_equal(const char* name, std::span<const double> gv,
                          std::span<const double> wv, const std::string& run) {
  ASSERT_EQ(gv.size(), wv.size()) << name << " (" << run << ")";
  for (std::size_t i = 0; i < gv.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(gv[i]), std::bit_cast<std::uint64_t>(wv[i]))
        << name << " differs from the reference run at flat index " << i << " ("
        << run << ")";
  }
}

void expect_bitwise_equal(const SweepOutputs& got, const SweepOutputs& want,
                          const std::string& run) {
  const auto g = named_values(got);
  const auto w = named_values(want);
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t f = 0; f < g.size(); ++f) {
    expect_bitwise_equal(g[f].first, g[f].second, w[f].second, run);
  }
}

// One thread reduces each row in edge order, whatever the team size, so
// every output is bitwise equal at 1, 2 and 4 threads, and run to run.
// Parameters: (reference team size, team size, graph family); the reference
// is always the sequential run.
class ScheduleEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

SweepOutputs run_with_threads(int threads, const SweepInputs& in) {
  ScopedThreads team(threads);
  return run_all_kernels(in);
}

TEST_P(ScheduleEquivalence, AllKernelsMatchSequentialReference) {
  const auto [ref_threads, threads, family] = GetParam();
  const auto in = make_inputs(family);
  const auto ref = run_with_threads(ref_threads, in);
  expect_bitwise_equal(run_with_threads(threads, in), ref,
                       std::to_string(threads) + " threads");
}

// The outputs at one team size are bitwise equal run to run, and to a
// sequential run made after that team has run (the reverse order of
// AllKernelsMatchSequentialReference).
TEST_P(ScheduleEquivalence, BitwiseReproducibleAcrossRunsAndThreadCounts) {
  const auto [ref_threads, threads, family] = GetParam();
  const auto in = make_inputs(family);
  const auto first = run_with_threads(threads, in);
  expect_bitwise_equal(run_with_threads(threads, in), first,
                       std::to_string(threads) + " threads, repeated");
  expect_bitwise_equal(run_with_threads(ref_threads, in), first,
                       std::to_string(ref_threads) + " thread after " +
                           std::to_string(threads));
}

// The gathered SpMMs read M^T through A^T's source_edges() map; at every
// team size they equal, bit for bit, a sequential transposed_into of M
// followed by spmm and spmm_accumulate.
TEST_P(ScheduleEquivalence, GatheredSpmmMatchesTransposeThenSpmm) {
  const auto [ref_threads, threads, family] = GetParam();
  const auto in = make_inputs(family);
  DenseMatrix<double> want_spmm, want_acc;
  {
    ScopedThreads team(ref_threads);
    CsrMatrix<double> m = in.a, mt;
    std::copy(in.m_vals.begin(), in.m_vals.end(), m.vals_mutable().begin());
    m.transposed_into(mt);
    spmm(mt, in.h, want_spmm);
    want_acc = random_dense<double>(mt.rows(), in.h.cols(), 165);
    spmm_accumulate(mt, in.h, want_acc);
  }
  const auto got = run_with_threads(threads, in);
  const std::string run = std::to_string(threads) + " threads vs transpose + spmm";
  expect_bitwise_equal("spmm_transposed", got.spmm_t.flat(), want_spmm.flat(), run);
  expect_bitwise_equal("spmm_accumulate_transposed", got.acc_t.flat(),
                       want_acc.flat(), run);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleEquivalence,
    ::testing::Combine(::testing::Values(1), ::testing::Values(1, 2, 4),
                       ::testing::Range(0, static_cast<int>(kFamilyCount))),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& pi) {
      return "row_parallel_t" + std::to_string(std::get<1>(pi.param)) + "_" +
             family_name(std::get<2>(pi.param));
    });

// ---- 2. steady-state allocation audit --------------------------------------
// After two warm-up passes (per-thread scratch sized, outputs at capacity),
// repeated invocations must not allocate at all. The fused aggregates size
// each thread's score buffer to the longest row when their parallel region
// starts, so no buffer depends on which rows its thread happens to draw,
// and the dot kernels and psi_gat size their outputs to the pattern once
// per call.
TEST(ScheduleSteadyState, RowParallelKernelsAllocateNothing) {
  const auto in = make_inputs(kFamilyStar);
  const std::vector<double> norms = row_l2_norms(in.h);
  DenseMatrix<double> spmm_out, mean_out, gat_out, va_out;
  CsrMatrix<double> soft = in.a, sampled, cosines, gat_scores, gat_psi;
  std::vector<double> sums;
  auto run_once = [&] {
    spmm(in.a, in.h, spmm_out);
    aggregate(in.a, in.h, Aggregation::kMean, mean_out);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, gat_out);
    fused_va_aggregate(in.a, in.h, in.x, va_out);
    sddmm(in.a, in.h, in.h, sampled);
    psi_agnn(in.a, in.h, std::span<const double>(norms), cosines);
    psi_gat<double>(in.a, in.s1, in.s2, 0.2, gat_scores, gat_psi);
    row_softmax_inplace(soft);
    sparse_row_sums(in.a, sums);
  };
  run_once();
  run_once();  // scratch and outputs at their high-water mark
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 5; ++rep) run_once();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state row-parallel kernels performed " << (after - before)
      << " allocations";
}
// The dense kernels ride the same audit: matmul_nt copies B^T and
// matmul_tn keeps its per-thread partials in per-call-site thread scratch,
// and the activation loops write into their outputs' capacity, so repeated
// calls allocate nothing.
TEST(ScheduleSteadyState, DenseKernelsAllocateNothing) {
  const auto h = random_dense<double>(203, 24, 181);
  const auto w = random_dense<double>(24, 17, 191);
  const auto g = random_dense<double>(203, 17, 193);
  DenseMatrix<double> hw, gwt, dw, act, dact;
  auto run_once = [&] {
    matmul(h, w, hw);
    matmul_nt(g, w, gwt);
    matmul_tn(h, g, dw);
    activate(Activation::kRelu, hw, act);
    activation_backward(Activation::kTanh, hw, g, dact);
  };
  run_once();
  run_once();  // scratch and outputs at their high-water mark
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 5; ++rep) run_once();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state dense kernels performed " << (after - before)
      << " allocations";
}
// A whole training step rides the same audit: on a graph above
// sparse_col_sums' parallel threshold (8,192 non-zeros) at 2 threads, with
// three layers, every kind's Trainer::step after two warm-up steps runs
// forward, loss, backward (gathered transposes, column-sum partials in
// thread scratch), the optimizer and the training accuracy without one
// allocation.
TEST(ScheduleSteadyState, TrainerStepAllocatesNothing) {
  ScopedThreads team(2);
  graph::BuildOptions opt;
  opt.add_self_loops = true;
  const auto g = graph::build_graph<double>(
      graph::generate_kronecker({.scale = 11, .edges = index_t(16) << 11, .seed = 7}),
      opt);
  ASSERT_GE(g.adj.nnz(), index_t(1) << 13);
  const CsrMatrix<double> adj_gcn = graph::sym_normalize(g.adj);
  const index_t n = g.num_vertices();
  DenseMatrix<double> x = random_dense<double>(n, 8, 197);
  scale_inplace(x, 0.1);  // keeps the unnormalized kinds' activations modest
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 4;
  for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN, ModelKind::kGAT,
                               ModelKind::kGCN, ModelKind::kGIN}) {
    const CsrMatrix<double>& adj = kind == ModelKind::kGCN ? adj_gcn : g.adj;
    const CsrMatrix<double> adj_t = adj.transposed();
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = 8;
    cfg.layer_widths = {8, 8, 4};
    GnnModel<double> model(cfg);
    Trainer<double> trainer(model, std::make_unique<AdamOptimizer<double>>(0.01));
    trainer.step(adj, adj_t, x, labels);
    trainer.step(adj, adj_t, x, labels);  // pool, caches, scratch, Adam state warm
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    for (int step = 0; step < 5; ++step) trainer.step(adj, adj_t, x, labels);
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << to_string(kind) << ": 5 steady-state steps performed "
                             << (after - before) << " allocations";
  }
}

// The reorder path rides the same audit: validate_permutation used to build
// an n-element vector<bool> per permute_* call; it now stamps an epoch into
// a thread_local high-water buffer, so repeated permutes within capacity
// must allocate nothing.
TEST(ScheduleSteadyState, PermutationValidationAllocatesNothing) {
  const index_t n = 96;
  const auto x = random_dense<double>(n, 7, 167);
  const auto perm = graph::random_permutation(n, 173);
  std::vector<double> v(static_cast<std::size_t>(n), 1.5), vout;
  DenseMatrix<double> out;
  auto run_once = [&] {
    graph::validate_permutation(perm, n);
    graph::permute_rows(x, perm, out);
    graph::permute_vector(v, perm, vout);
  };
  run_once();
  run_once();  // stamp buffer and outputs at their high-water mark
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 8; ++rep) run_once();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state permutation validation performed " << (after - before)
      << " allocations";
}

}  // namespace
}  // namespace agnn
