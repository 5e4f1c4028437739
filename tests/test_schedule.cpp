// The row-parallel kernel schedule: every sparse kernel in tensor/ hands
// each row to one OpenMP thread, which reduces it in edge order.
//
//   1. Thread-count sweep, TEST_P over team size x adversarial graph
//      family: every sparse and fused kernel's output at 1, 2 and 4
//      threads, and a repeated run, is bitwise equal to its output at 1
//      thread.
//   2. Steady-state allocation audit for the kernels that keep per-thread
//      scratch, the dense GEMMs and activation loops included (this binary
//      replaces global operator new to count).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/activations.hpp"
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

// Inputs shared by the sweep: a weighted adversarial graph plus features,
// aggregation operands, and attention score vectors.
struct SweepInputs {
  CsrMatrix<double> a;
  DenseMatrix<double> h;
  DenseMatrix<double> x;
  std::vector<double> s1, s2, row_scale, col_scale;
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
  return in;
}

// Every sparse and fused kernel's outputs for one input set, so the
// reference and the candidate runs share one code path.
struct SweepOutputs {
  DenseMatrix<double> spmm_out, acc_out, agg_min, agg_max, agg_mean;
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

// The 17 outputs as named value arrays.
std::vector<std::pair<const char*, std::span<const double>>> named_values(
    const SweepOutputs& o) {
  return {{"spmm", o.spmm_out.flat()},
          {"spmm_accumulate", o.acc_out.flat()},
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

void expect_bitwise_equal(const SweepOutputs& got, const SweepOutputs& want,
                          const std::string& run) {
  const auto g = named_values(got);
  const auto w = named_values(want);
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t f = 0; f < g.size(); ++f) {
    const auto& [name, gv] = g[f];
    const auto& wv = w[f].second;
    ASSERT_EQ(gv.size(), wv.size()) << name << " (" << run << ")";
    for (std::size_t i = 0; i < gv.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gv[i]),
                std::bit_cast<std::uint64_t>(wv[i]))
          << name << " differs from the reference run at flat index " << i
          << " (" << run << ")";
    }
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
// repeated invocations must not allocate at all. fused_gat_aggregate sizes
// each thread's score buffer to the longest row when its parallel region
// starts, so no buffer depends on which rows its thread happens to draw.
TEST(ScheduleSteadyState, RowParallelKernelsAllocateNothing) {
  const auto in = make_inputs(kFamilyStar);
  DenseMatrix<double> spmm_out, mean_out, gat_out;
  CsrMatrix<double> soft = in.a;
  std::vector<double> sums;
  auto run_once = [&] {
    spmm(in.a, in.h, spmm_out);
    aggregate(in.a, in.h, Aggregation::kMean, mean_out);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, gat_out);
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
