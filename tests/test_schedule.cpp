// The scheduler test layer for src/tensor/schedule.hpp.
//
//   1. Policy spellings and the AGNN_SCHEDULE / AGNN_SCHEDULE_GRAIN parsing.
//   2. Degree-histogram bin boundaries and the skew statistics.
//   3. Auto-heuristic policy selection.
//   4. Chunking invariants, TEST_P over policy x adversarial graph: every
//      nnz covered exactly once, every row owned exactly once, no degenerate
//      chunks, pieces respect the grain and stay in edge order.
//   5. The schedule cache on CsrMatrix: reuse, rebuild on knob change,
//      transfer on copy, invalidation on pattern rebuild.
//   6. Scheduler equivalence, TEST_P over policy x thread count x graph:
//      every fused and sparse kernel against the single-threaded
//      row-parallel reference, plus bitwise determinism across repeated
//      runs and across thread counts.
//   7. Steady-state allocation audit for the chunked partial-accumulator
//      paths (this binary replaces global operator new to count).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "graph/reorder.hpp"
#include "tensor/fused.hpp"
#include "tensor/schedule.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

// ---- allocation counting (this binary only) --------------------------------
// Counts every global operator new; the steady-state audit reads the counter
// around a window of kernel calls. Everything else may allocate freely.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<std::uint64_t> g_news{0};

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace agnn {
namespace {

using testing::random_dense;

// Set/restore one environment variable for the duration of a scope. The
// schedule env knobs are read per kernel invocation, so flipping them inside
// a test is immediately visible.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

#if defined(_OPENMP)
// Pin the OpenMP team size for a scope; the equivalence sweep runs every
// policy under several team sizes against a single-threaded reference.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : prev_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~ScopedThreads() { omp_set_num_threads(prev_); }

 private:
  int prev_;
};
#else
class ScopedThreads {
 public:
  explicit ScopedThreads(int) {}
};
#endif

// ---- 1. parsing ------------------------------------------------------------

TEST(SchedulePolicyParse, AcceptsAllSpellings) {
  SchedulePolicy p{};
  EXPECT_TRUE(parse_schedule_policy("auto", p));
  EXPECT_EQ(p, SchedulePolicy::kAuto);
  EXPECT_TRUE(parse_schedule_policy("", p));
  EXPECT_EQ(p, SchedulePolicy::kAuto);
  EXPECT_TRUE(parse_schedule_policy("row", p));
  EXPECT_EQ(p, SchedulePolicy::kRowParallel);
  EXPECT_TRUE(parse_schedule_policy("row_parallel", p));
  EXPECT_EQ(p, SchedulePolicy::kRowParallel);
  EXPECT_TRUE(parse_schedule_policy("edge", p));
  EXPECT_EQ(p, SchedulePolicy::kEdgeBalanced);
  EXPECT_TRUE(parse_schedule_policy("edge_balanced", p));
  EXPECT_EQ(p, SchedulePolicy::kEdgeBalanced);
  EXPECT_TRUE(parse_schedule_policy("hybrid", p));
  EXPECT_EQ(p, SchedulePolicy::kHybridBinned);
  EXPECT_TRUE(parse_schedule_policy("hybrid_binned", p));
  EXPECT_EQ(p, SchedulePolicy::kHybridBinned);
}

TEST(SchedulePolicyParse, RejectsUnknownSpellings) {
  SchedulePolicy p = SchedulePolicy::kEdgeBalanced;
  EXPECT_FALSE(parse_schedule_policy("rows", p));
  EXPECT_FALSE(parse_schedule_policy("EDGE", p));
  EXPECT_FALSE(parse_schedule_policy("dynamic", p));
  EXPECT_FALSE(parse_schedule_policy("hybrid-binned", p));
  EXPECT_EQ(p, SchedulePolicy::kEdgeBalanced) << "rejects must not clobber out";
}

TEST(SchedulePolicyParse, EnvOverrideSelectsPolicy) {
  {
    ScopedEnv e("AGNN_SCHEDULE", nullptr);
    EXPECT_EQ(schedule_policy_from_env(), SchedulePolicy::kAuto);
  }
  {
    ScopedEnv e("AGNN_SCHEDULE", "edge");
    EXPECT_EQ(schedule_policy_from_env(), SchedulePolicy::kEdgeBalanced);
  }
  {
    ScopedEnv e("AGNN_SCHEDULE", "hybrid_binned");
    EXPECT_EQ(schedule_policy_from_env(), SchedulePolicy::kHybridBinned);
  }
  {
    ScopedEnv e("AGNN_SCHEDULE", "");
    EXPECT_EQ(schedule_policy_from_env(), SchedulePolicy::kAuto);
  }
  {
    // A typo throws, naming the variable, rather than silently running auto.
    ScopedEnv e("AGNN_SCHEDULE", "warp_per_row");
    try {
      schedule_policy_from_env();
      FAIL() << "expected AGNN_SCHEDULE=warp_per_row to throw";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find("AGNN_SCHEDULE"), std::string::npos)
          << err.what();
    }
  }
}

TEST(SchedulePolicyParse, EnvGrainParsing) {
  {
    ScopedEnv e("AGNN_SCHEDULE_GRAIN", nullptr);
    EXPECT_EQ(schedule_grain_from_env(), kDefaultScheduleGrain);
  }
  {
    ScopedEnv e("AGNN_SCHEDULE_GRAIN", "256");
    EXPECT_EQ(schedule_grain_from_env(), 256);
  }
  {
    ScopedEnv e("AGNN_SCHEDULE_GRAIN", "");
    EXPECT_EQ(schedule_grain_from_env(), kDefaultScheduleGrain);
  }
  for (const char* bad : {"0", "-8", "abc", "12abc", "99999999999999999999"}) {
    ScopedEnv e("AGNN_SCHEDULE_GRAIN", bad);
    try {
      schedule_grain_from_env();
      FAIL() << "grain '" << bad << "' must throw";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find("AGNN_SCHEDULE_GRAIN"),
                std::string::npos)
          << err.what();
    }
  }
}

// ---- 2. stats and bin boundaries -------------------------------------------

TEST(ScheduleStatsTest, DegreeBinBoundaries) {
  // Degrees chosen to straddle every nearby bin boundary: bin b holds the
  // degrees with bit width b, so [2^(b-1), 2^b - 1].
  const std::vector<index_t> degrees = {0, 1, 2, 3, 4, 7, 8, 15, 16, 1023, 1024};
  std::vector<index_t> row_ptr(1, 0);
  for (const index_t d : degrees) row_ptr.push_back(row_ptr.back() + d);
  const auto st = compute_schedule_stats(row_ptr);
  ASSERT_EQ(st.rows, static_cast<index_t>(degrees.size()));
  EXPECT_EQ(st.nnz, row_ptr.back());
  EXPECT_EQ(st.max_row_nnz, 1024);
  EXPECT_EQ(st.bins[0], 1);   // degree 0
  EXPECT_EQ(st.bins[1], 1);   // degree 1
  EXPECT_EQ(st.bins[2], 2);   // degrees 2, 3
  EXPECT_EQ(st.bins[3], 2);   // degrees 4, 7
  EXPECT_EQ(st.bins[4], 2);   // degrees 8, 15
  EXPECT_EQ(st.bins[5], 1);   // degree 16
  EXPECT_EQ(st.bins[10], 1);  // degree 1023
  EXPECT_EQ(st.bins[11], 1);  // degree 1024
  index_t total = 0;
  for (const index_t b : st.bins) total += b;
  EXPECT_EQ(total, st.rows) << "every row lands in exactly one bin";
}

TEST(ScheduleStatsTest, SkewIsMaxOverMean) {
  // 9 rows of degree 1 plus one hub of degree 91: mean 10, skew 9.1.
  std::vector<index_t> row_ptr(1, 0);
  for (int i = 0; i < 9; ++i) row_ptr.push_back(row_ptr.back() + 1);
  row_ptr.push_back(row_ptr.back() + 91);
  const auto st = compute_schedule_stats(row_ptr);
  EXPECT_EQ(st.nnz, 100);
  EXPECT_DOUBLE_EQ(st.mean_row_nnz, 10.0);
  EXPECT_DOUBLE_EQ(st.skew, 9.1);
}

TEST(ScheduleStatsTest, EmptyMatrixHasZeroSkew) {
  const std::vector<index_t> row_ptr = {0, 0, 0, 0};
  const auto st = compute_schedule_stats(row_ptr);
  EXPECT_EQ(st.rows, 3);
  EXPECT_EQ(st.nnz, 0);
  EXPECT_EQ(st.skew, 0.0);
  EXPECT_EQ(st.bins[0], 3);
}

// ---- 3. the Auto heuristic -------------------------------------------------

namespace {
std::vector<index_t> row_ptr_for(const std::vector<index_t>& degrees) {
  std::vector<index_t> rp(1, 0);
  for (const index_t d : degrees) rp.push_back(rp.back() + d);
  return rp;
}
}  // namespace

TEST(ScheduleHeuristic, TinyGraphsStayRowParallel) {
  // One monster hub, but nnz below the engagement floor: the chunk machinery
  // would cost more than the imbalance it removes.
  std::vector<index_t> degrees(10, 1);
  degrees[0] = 1000;
  const auto rp = row_ptr_for(degrees);
  const auto st = compute_schedule_stats(rp);
  ASSERT_LT(st.nnz, kScheduleAutoMinNnz);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto, 64),
            SchedulePolicy::kRowParallel);
}

TEST(ScheduleHeuristic, MonsterHubForcesHybrid) {
  // A hub spanning >= 4 grains dominates any uniform partition.
  std::vector<index_t> degrees(200, 1);
  degrees[7] = 4096;
  const auto st = compute_schedule_stats(row_ptr_for(degrees));
  ASSERT_GE(st.nnz, kScheduleAutoMinNnz);
  ASSERT_GE(st.max_row_nnz, 4 * 64);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto, 64),
            SchedulePolicy::kHybridBinned);
}

TEST(ScheduleHeuristic, ModerateSkewSelectsEdgeBalanced) {
  // Skew above the threshold but the largest row still fits inside a few
  // grains: the uniform edge partition suffices.
  std::vector<index_t> degrees(4200, 1);
  degrees[0] = 64;
  const auto st = compute_schedule_stats(row_ptr_for(degrees));
  ASSERT_GE(st.nnz, kScheduleAutoMinNnz);
  ASSERT_LT(st.max_row_nnz, 4 * kDefaultScheduleGrain);
  ASSERT_GE(st.skew, kScheduleAutoSkewThreshold);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto,
                                    kDefaultScheduleGrain),
            SchedulePolicy::kEdgeBalanced);
}

TEST(ScheduleHeuristic, BalancedDegreesStayRowParallel) {
  const std::vector<index_t> degrees(1000, 8);
  const auto st = compute_schedule_stats(row_ptr_for(degrees));
  ASSERT_GE(st.nnz, kScheduleAutoMinNnz);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto,
                                    kDefaultScheduleGrain),
            SchedulePolicy::kRowParallel);
}

TEST(ScheduleHeuristic, ExplicitRequestBypassesHeuristic) {
  const std::vector<index_t> degrees(4, 1);
  const auto st = compute_schedule_stats(row_ptr_for(degrees));
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kEdgeBalanced, 64),
            SchedulePolicy::kEdgeBalanced);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kHybridBinned, 64),
            SchedulePolicy::kHybridBinned);
  EXPECT_EQ(resolve_schedule_policy(st, SchedulePolicy::kRowParallel, 64),
            SchedulePolicy::kRowParallel);
}

// ---- adversarial graph families --------------------------------------------
// The families the load-balance work targets: one huge hub (star), a long
// uniform tail (chain), interleaved and trailing empty rows (isolated mix),
// a power-law degree distribution (Kronecker), and a dense-ish control.

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
      // Degree <= 3 everywhere: exercises whole-row grouping with no splits.
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
      // rows — stay fully empty, so chunk row-coverage of trailing empties
      // is on the line.
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

// ---- 4. chunking invariants ------------------------------------------------

class ScheduleChunking
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleChunking, CoversEveryEdgeAndRowExactlyOnce) {
  const auto policy = static_cast<SchedulePolicy>(std::get<0>(GetParam()));
  const auto a = family_graph(std::get<1>(GetParam()), 101);
  const index_t grain = 8;  // small enough to force splits on test graphs
  const auto sched = KernelSchedule::build(a.row_ptr(), policy, grain);
  ASSERT_EQ(sched.policy(), policy);

  // Edge coverage: walking every chunk's clamped per-row ranges touches
  // every stored edge exactly once.
  std::vector<int> edge_seen(static_cast<std::size_t>(a.nnz()), 0);
  std::vector<int> row_seen(static_cast<std::size_t>(a.rows()), 0);
  for (const auto& c : sched.chunks()) {
    ASSERT_LT(c.row_begin, c.row_end) << "chunk must own at least one row";
    ASSERT_LE(c.edge_begin, c.edge_end);
    if (c.piece >= 0) {
      ASSERT_EQ(c.row_end, c.row_begin + 1) << "pieces cover a single row";
      ASSERT_LT(c.edge_begin, c.edge_end) << "pieces must carry edges";
      ASSERT_LE(c.edge_end - c.edge_begin, grain);
    } else {
      for (index_t i = c.row_begin; i < c.row_end; ++i) {
        row_seen[static_cast<std::size_t>(i)]++;
      }
    }
    for (index_t i = c.row_begin; i < c.row_end; ++i) {
      const index_t b = std::max(a.row_begin(i), c.edge_begin);
      const index_t e = std::min(a.row_end(i), c.edge_end);
      for (index_t x = b; x < e; ++x) edge_seen[static_cast<std::size_t>(x)]++;
    }
  }
  // Split rows are owned by their SplitRow entry, not by a whole-row chunk.
  for (const auto& sr : sched.split_rows()) {
    row_seen[static_cast<std::size_t>(sr.row)]++;
  }
  for (index_t e = 0; e < a.nnz(); ++e) {
    ASSERT_EQ(edge_seen[static_cast<std::size_t>(e)], 1)
        << "edge " << e << " covered " << edge_seen[static_cast<std::size_t>(e)]
        << " times";
  }
  for (index_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(row_seen[static_cast<std::size_t>(i)], 1)
        << "row " << i << " owned " << row_seen[static_cast<std::size_t>(i)]
        << " times (empty rows included)";
  }
}

TEST_P(ScheduleChunking, SplitRowPiecesAreOrderedAndGrainBounded) {
  const auto policy = static_cast<SchedulePolicy>(std::get<0>(GetParam()));
  const auto a = family_graph(std::get<1>(GetParam()), 103);
  const index_t grain = 8;
  const auto sched = KernelSchedule::build(a.row_ptr(), policy, grain);
  ASSERT_EQ(static_cast<index_t>(sched.pieces().size()), sched.num_pieces());
  for (const auto& sr : sched.split_rows()) {
    ASSERT_LT(sr.piece_begin, sr.piece_end);
    ASSERT_GE(sr.piece_end - sr.piece_begin, 2)
        << "a split row must have at least two pieces";
    // Pieces tile the row contiguously in ascending edge order — the fixed
    // reduction order that makes the partial fold deterministic.
    index_t pos = a.row_begin(sr.row);
    for (index_t p = sr.piece_begin; p < sr.piece_end; ++p) {
      const auto& piece = sched.pieces()[static_cast<std::size_t>(p)];
      ASSERT_EQ(piece.row, sr.row);
      ASSERT_EQ(piece.edge_begin, pos);
      ASSERT_GT(piece.edge_end, piece.edge_begin);
      ASSERT_LE(piece.edge_end - piece.edge_begin, grain);
      pos = piece.edge_end;
    }
    ASSERT_EQ(pos, a.row_end(sr.row)) << "pieces must tile the whole row";
  }
  // Whole-row chunks never balloon: the greedy builders close a chunk as
  // soon as it reaches the grain, so it holds < grain + max light row edges.
  const index_t cap =
      policy == SchedulePolicy::kEdgeBalanced ? 2 * grain : 3 * grain;
  for (const auto& c : sched.chunks()) {
    if (c.piece >= 0) continue;
    EXPECT_LT(c.edge_end - c.edge_begin, cap);
  }
}

TEST_P(ScheduleChunking, StarHubActuallySplits) {
  const auto policy = static_cast<SchedulePolicy>(std::get<0>(GetParam()));
  if (std::get<1>(GetParam()) != kFamilyStar) GTEST_SKIP();
  const auto a = family_graph(kFamilyStar, 107);
  const auto sched = KernelSchedule::build(a.row_ptr(), policy, 8);
  ASSERT_GE(sched.num_split_rows(), 1) << "the hub row must split";
  bool hub_split = false;
  for (const auto& sr : sched.split_rows()) hub_split |= sr.row == 0;
  EXPECT_TRUE(hub_split);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ScheduleChunking,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(SchedulePolicy::kEdgeBalanced),
                          static_cast<int>(SchedulePolicy::kHybridBinned)),
        ::testing::Range(0, static_cast<int>(kFamilyCount))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pi) {
      return std::string(to_string(
                 static_cast<SchedulePolicy>(std::get<0>(pi.param)))) +
             "_" + family_name(std::get<1>(pi.param));
    });

// ---- 5. the schedule cache on CsrMatrix ------------------------------------

TEST(ScheduleCache, ReusesMatchingSchedule) {
  const auto a = family_graph(kFamilyStar, 109);
  const auto s1 = schedule_for(a, SchedulePolicy::kEdgeBalanced, 8);
  const auto s2 = schedule_for(a, SchedulePolicy::kEdgeBalanced, 8);
  EXPECT_EQ(s1.get(), s2.get()) << "same knobs must hit the cache";
  const auto s3 = schedule_for(a, SchedulePolicy::kEdgeBalanced, 16);
  EXPECT_NE(s1.get(), s3.get()) << "a grain change must rebuild";
  EXPECT_EQ(s3->grain(), 16);
  const auto s4 = schedule_for(a, SchedulePolicy::kHybridBinned, 16);
  EXPECT_NE(s3.get(), s4.get()) << "a policy change must rebuild";
}

TEST(ScheduleCache, CopyCarriesTheCache) {
  const auto a = family_graph(kFamilyStar, 113);
  const auto s = schedule_for(a, SchedulePolicy::kEdgeBalanced, 8);
  const CsrMatrix<double> b = a;  // same pattern -> the schedule stays valid
  EXPECT_EQ(b.cached_schedule().get(), s.get());
}

TEST(ScheduleCache, TransposeRebuildInvalidates) {
  const auto a = family_graph(kFamilyStar, 127);
  CsrMatrix<double> t = a.transposed();
  const auto s = schedule_for(t, SchedulePolicy::kEdgeBalanced, 8);
  ASSERT_NE(s.get(), nullptr);
  ASSERT_NE(t.cached_schedule().get(), nullptr);
  a.transposed_into(t);  // rebuilds t's pattern in place
  EXPECT_EQ(t.cached_schedule().get(), nullptr)
      << "an in-place pattern rebuild must drop the stale schedule";
  t.invalidate_schedule_cache();
  EXPECT_EQ(t.cached_schedule().get(), nullptr);
}

TEST(ScheduleCache, EnvDrivenAccessorTracksKnobs) {
  const auto a = family_graph(kFamilyStar, 131);
  ScopedEnv grain("AGNN_SCHEDULE_GRAIN", "8");
  {
    ScopedEnv pol("AGNN_SCHEDULE", "edge");
    const auto s = schedule_for(a);
    EXPECT_EQ(s->requested(), SchedulePolicy::kEdgeBalanced);
    EXPECT_EQ(s->policy(), SchedulePolicy::kEdgeBalanced);
    EXPECT_EQ(s->grain(), 8);
    EXPECT_EQ(schedule_for(a).get(), s.get());
  }
  {
    ScopedEnv pol("AGNN_SCHEDULE", "row");
    const auto s = schedule_for(a);
    EXPECT_EQ(s->policy(), SchedulePolicy::kRowParallel);
    EXPECT_TRUE(s->row_parallel());
  }
}

// ---- 6. scheduler equivalence ----------------------------------------------
// Every fused / sparse kernel under (policy x thread count x graph family)
// against the single-threaded row-parallel reference. Rows that are not
// split run byte-identical arithmetic under every policy; split rows
// reassociate within the fixed piece order, so the comparison is a tight
// relative tolerance rather than bitwise.

constexpr double kEqTol = 1e-12;
constexpr index_t kEqGrain = 8;

void expect_dense_close(const DenseMatrix<double>& got,
                        const DenseMatrix<double>& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t i = 0; i < got.size(); ++i) {
    const double w = want.data()[i];
    // Bit-equal covers the ±inf identities empty rows leave in the min/max
    // aggregations, where inf - inf would poison EXPECT_NEAR.
    if (std::bit_cast<std::uint64_t>(got.data()[i]) ==
        std::bit_cast<std::uint64_t>(w)) {
      continue;
    }
    ASSERT_NEAR(got.data()[i], w, kEqTol * (1.0 + std::abs(w)))
        << what << " at flat index " << i;
  }
}

void expect_sparse_close(const CsrMatrix<double>& got,
                         const CsrMatrix<double>& want, const char* what) {
  ASSERT_TRUE(got.same_pattern(want)) << what;
  for (index_t e = 0; e < got.nnz(); ++e) {
    const double w = want.val_at(e);
    ASSERT_NEAR(got.val_at(e), w, kEqTol * (1.0 + std::abs(w)))
        << what << " at nnz " << e;
  }
}

void expect_vec_close(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], kEqTol * (1.0 + std::abs(want[i])))
        << what << " at " << i;
  }
}

bool dense_bits_equal(const DenseMatrix<double>& a, const DenseMatrix<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.data()[i]) !=
        std::bit_cast<std::uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

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

// Every scheduled kernel's outputs for one (schedule, inputs) pair, so the
// reference and the candidate runs share one code path.
struct SweepOutputs {
  DenseMatrix<double> spmm_out, acc_out, agg_min, agg_max, agg_mean;
  DenseMatrix<double> fused_va, fused_gat;
  CsrMatrix<double> sddmm_out, sddmm_unw, scaled, softmax, softmax_dx;
  CsrMatrix<double> va, agnn, gat_scores, gat_psi;
  std::vector<double> row_sums;
};

SweepOutputs run_all_kernels(const SweepInputs& in, const KernelSchedule& sched) {
  SweepOutputs o;
  const double slope = 0.2;
  spmm(in.a, in.h, o.spmm_out, &sched);
  o.acc_out = random_dense<double>(in.a.rows(), in.h.cols(), 157);
  spmm_accumulate(in.a, in.h, o.acc_out, &sched);
  aggregate(in.a, in.h, Aggregation::kMin, o.agg_min, &sched);
  aggregate(in.a, in.h, Aggregation::kMax, o.agg_max, &sched);
  aggregate(in.a, in.h, Aggregation::kMean, o.agg_mean, &sched);
  sddmm(in.a, in.h, in.h, o.sddmm_out, &sched);
  sddmm_unweighted(in.a, in.h, in.h, o.sddmm_unw, &sched);
  scale_rows_cols<double>(in.a, in.row_scale, in.col_scale, o.scaled,
                         &sched);
  sparse_row_sums(in.a, o.row_sums, &sched);
  // The softmax pair runs on the SDDMM scores (pattern of `a`, so the same
  // schedule applies), backward on a perturbed upstream gradient.
  row_softmax(o.sddmm_out, o.softmax, &sched);
  {
    auto ds = o.softmax;
    auto v = ds.vals_mutable();
    Rng rng(163);
    for (auto& x : v) x = rng.next_uniform(-1, 1);
    row_softmax_backward(o.softmax, ds, o.softmax_dx, &sched);
  }
  psi_va(in.a, in.h, o.va, &sched);
  psi_agnn(in.a, in.h, o.agnn, &sched);
  psi_gat<double>(in.a, in.s1, in.s2, slope, o.gat_scores, o.gat_psi, &sched);
  fused_va_aggregate(in.a, in.h, in.x, o.fused_va, &sched);
  fused_gat_aggregate<double>(in.a, in.s1, in.s2, slope, in.x, o.fused_gat,
                              &sched);
  return o;
}

class ScheduleEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScheduleEquivalence, AllKernelsMatchSequentialReference) {
  const auto policy = static_cast<SchedulePolicy>(std::get<0>(GetParam()));
  const int threads = std::get<1>(GetParam());
  const auto in = make_inputs(std::get<2>(GetParam()));

  SweepOutputs ref;
  {
    ScopedThreads one(1);
    const auto row =
        KernelSchedule::build(in.a.row_ptr(), SchedulePolicy::kRowParallel,
                              kEqGrain);
    ref = run_all_kernels(in, row);
  }

  ScopedThreads team(threads);
  const auto sched = KernelSchedule::build(in.a.row_ptr(), policy, kEqGrain);
  const auto got = run_all_kernels(in, sched);

  expect_dense_close(got.spmm_out, ref.spmm_out, "spmm");
  expect_dense_close(got.acc_out, ref.acc_out, "spmm_accumulate");
  expect_dense_close(got.agg_min, ref.agg_min, "aggregate(min)");
  expect_dense_close(got.agg_max, ref.agg_max, "aggregate(max)");
  expect_dense_close(got.agg_mean, ref.agg_mean, "aggregate(mean)");
  expect_sparse_close(got.sddmm_out, ref.sddmm_out, "sddmm");
  expect_sparse_close(got.sddmm_unw, ref.sddmm_unw, "sddmm_unweighted");
  expect_sparse_close(got.scaled, ref.scaled, "scale_rows_cols");
  expect_vec_close(got.row_sums, ref.row_sums, "sparse_row_sums");
  expect_sparse_close(got.softmax, ref.softmax, "row_softmax");
  expect_sparse_close(got.softmax_dx, ref.softmax_dx, "row_softmax_backward");
  expect_sparse_close(got.va, ref.va, "psi_va");
  expect_sparse_close(got.agnn, ref.agnn, "psi_agnn");
  expect_sparse_close(got.gat_scores, ref.gat_scores, "psi_gat scores");
  expect_sparse_close(got.gat_psi, ref.gat_psi, "psi_gat psi");
  expect_dense_close(got.fused_va, ref.fused_va, "fused_va_aggregate");
  expect_dense_close(got.fused_gat, ref.fused_gat, "fused_gat_aggregate");
}

// The chunk decomposition depends only on (row_ptr, policy, grain) — never
// on the team size — and partials fold in fixed piece order, so the outputs
// are bitwise identical run to run AND across thread counts.
TEST_P(ScheduleEquivalence, BitwiseReproducibleAcrossRunsAndThreadCounts) {
  const auto policy = static_cast<SchedulePolicy>(std::get<0>(GetParam()));
  const int threads = std::get<1>(GetParam());
  const auto in = make_inputs(std::get<2>(GetParam()));
  const auto sched = KernelSchedule::build(in.a.row_ptr(), policy, kEqGrain);

  DenseMatrix<double> base_spmm, base_gat;
  {
    ScopedThreads team(threads);
    spmm(in.a, in.h, base_spmm, &sched);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, base_gat,
                                &sched);
    // Same team size, repeated run.
    DenseMatrix<double> again_spmm, again_gat;
    spmm(in.a, in.h, again_spmm, &sched);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, again_gat,
                                &sched);
    EXPECT_TRUE(dense_bits_equal(base_spmm, again_spmm))
        << "spmm must be bitwise stable across repeated runs";
    EXPECT_TRUE(dense_bits_equal(base_gat, again_gat))
        << "fused_gat_aggregate must be bitwise stable across repeated runs";
  }
  {
    // Different team size, same schedule.
    ScopedThreads one(1);
    DenseMatrix<double> serial_spmm, serial_gat;
    spmm(in.a, in.h, serial_spmm, &sched);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, serial_gat,
                                &sched);
    EXPECT_TRUE(dense_bits_equal(base_spmm, serial_spmm))
        << "spmm must be bitwise identical across thread counts";
    EXPECT_TRUE(dense_bits_equal(base_gat, serial_gat))
        << "fused_gat_aggregate must be bitwise identical across thread counts";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleEquivalence,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(SchedulePolicy::kRowParallel),
                          static_cast<int>(SchedulePolicy::kEdgeBalanced),
                          static_cast<int>(SchedulePolicy::kHybridBinned)),
        ::testing::Values(1, 2, 4),
        ::testing::Range(0, static_cast<int>(kFamilyCount))),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& pi) {
      return std::string(to_string(
                 static_cast<SchedulePolicy>(std::get<0>(pi.param)))) +
             "_t" + std::to_string(std::get<1>(pi.param)) + "_" +
             family_name(std::get<2>(pi.param));
    });

// Kernels picked up through the env knobs (no explicit schedule argument)
// must agree with the row-parallel defaults too — this is the path the
// training engines and the golden suite exercise.
TEST(ScheduleEnvOverride, KernelsMatchUnderEnvSelectedPolicies) {
  const auto in = make_inputs(kFamilyKronHub);
  DenseMatrix<double> ref;
  {
    ScopedEnv pol("AGNN_SCHEDULE", "row");
    ScopedEnv grain("AGNN_SCHEDULE_GRAIN", nullptr);
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, ref);
  }
  for (const char* policy : {"edge", "hybrid"}) {
    ScopedEnv pol("AGNN_SCHEDULE", policy);
    ScopedEnv grain("AGNN_SCHEDULE_GRAIN", "8");
    DenseMatrix<double> got;
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, got);
    expect_dense_close(got, ref, policy);
  }
}

// ---- 7. steady-state allocation audit --------------------------------------
// After one warm-up pass (schedule built and cached, thread-local arenas at
// their high-water mark, outputs at capacity), repeated invocations of the
// chunked kernels must not allocate at all.
TEST(ScheduleSteadyState, ChunkedKernelsAllocateNothing) {
  const auto in = make_inputs(kFamilyStar);
  const auto sched = schedule_for(in.a, SchedulePolicy::kHybridBinned, 8);
  DenseMatrix<double> spmm_out, gat_out;
  CsrMatrix<double> soft = in.a;
  std::vector<double> sums;
  auto run_once = [&] {
    spmm(in.a, in.h, spmm_out, sched.get());
    fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, gat_out,
                                sched.get());
    row_softmax_inplace(soft, sched.get());
    sparse_row_sums(in.a, sums, sched.get());
  };
  run_once();
  run_once();  // arenas and outputs at their high-water mark
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 5; ++rep) run_once();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state chunked kernels performed " << (after - before)
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
