// The sparse core (tensor/sparse_core.hpp) against the plain loops it
// replaced, bit for bit: every public SDDMM, SpMM and fused kernel that runs
// on it, and both twins' tiles called directly, including the stage-split
// rows the distributed engine runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/fused.hpp"
#include "tensor/sparse_core.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::Bits;
using testing::ScopedThreads;

// Every kind of remainder: no columns, fewer than one vector of either twin,
// exactly one, between vectors, a whole 8-vector pass and one past it.
constexpr index_t kCoreDepths[] = {0, 1, 3, 7, 8, 37, 64, 65};

// Rows of 0 to 17 edges in turn, then a hub row of 130 edges, with
// distinct sorted columns (so a column block is a contiguous edge range, as
// in the distributed engine's stages).
constexpr index_t kCoreRows = 150;
constexpr index_t kHubEdges = 130;

// -0 every seventh value and a subnormal every eleventh: a chain that
// skipped its +0 start (0 + -0 is +0) or flushed subnormals would show.
template <typename T>
T adversarial(std::size_t p, T v) {
  if (p % 7 == 3) return T(-0.0);
  if (p % 11 == 5) return std::numeric_limits<T>::denorm_min() * T(3);
  return v;
}

template <typename T>
DenseMatrix<T> core_operand(index_t rows, index_t cols, std::uint64_t seed) {
  auto m = testing::random_dense<T>(rows, cols, seed);
  for (index_t p = 0; p < m.size(); ++p) {
    m.data()[p] = adversarial(static_cast<std::size_t>(p), m.data()[p]);
  }
  return m;
}

template <typename T>
std::vector<T> core_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t p = 0; p < n; ++p) {
    v[p] = adversarial(p, static_cast<T>(rng.next_uniform(-1.0, 1.0)));
  }
  return v;
}

template <typename T>
CsrMatrix<T> core_graph() {
  Rng rng(53);
  CooMatrix<T> coo;
  coo.n_rows = coo.n_cols = kCoreRows;
  std::vector<index_t> all(static_cast<std::size_t>(kCoreRows));
  for (index_t c = 0; c < kCoreRows; ++c) all[static_cast<std::size_t>(c)] = c;
  for (index_t i = 0; i < kCoreRows; ++i) {
    const index_t len = i == kCoreRows - 1 ? kHubEdges : i % 18;
    for (index_t p = 0; p < len; ++p) {  // partial Fisher-Yates: distinct columns
      const auto q = p + static_cast<index_t>(rng.next_bounded(
                             static_cast<std::uint64_t>(kCoreRows - p)));
      std::swap(all[static_cast<std::size_t>(p)], all[static_cast<std::size_t>(q)]);
      coo.push_back(i, all[static_cast<std::size_t>(p)], T(0));
    }
  }
  CsrMatrix<T> a = CsrMatrix<T>::from_coo(coo);
  const auto vals = core_values<T>(static_cast<std::size_t>(a.nnz()), 59);
  std::copy(vals.begin(), vals.end(), a.vals_mutable().begin());
  return a;
}

// ---- the oracle: the plain loops the core replaced --------------------------
namespace oracle {

template <typename T>
T dot(const T* x, const T* y, index_t k) {
  T acc = T(0);
  for (index_t g = 0; g < k; ++g) acc += x[g] * y[g];
  return acc;
}

template <typename T>
std::vector<T> sddmm(const CsrMatrix<T>& a, const DenseMatrix<T>& x,
                     const DenseMatrix<T>& y, bool weighted) {
  const index_t k = x.cols();
  std::vector<T> v(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t t = a.row_begin(i); t < a.row_end(i); ++t) {
      const T acc = dot(x.data() + i * k, y.data() + a.col_at(t) * k, k);
      v[static_cast<std::size_t>(t)] = weighted ? a.val_at(t) * acc : acc;
    }
  }
  return v;
}

template <typename T>
std::vector<T> psi_agnn(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                        const std::vector<T>& norms) {
  const index_t k = h.cols();
  std::vector<T> v(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const T ni = norms[static_cast<std::size_t>(i)];
    for (index_t t = a.row_begin(i); t < a.row_end(i); ++t) {
      const index_t j = a.col_at(t);
      const T d = dot(h.data() + i * k, h.data() + j * k, k);
      const T denom = ni * norms[static_cast<std::size_t>(j)];
      v[static_cast<std::size_t>(t)] = denom > T(0) ? a.val_at(t) * (d / denom) : T(0);
    }
  }
  return v;
}

// out(i) = (out(i) or 0) + sum over edges e of w(e) * h_{col(e)}.
template <typename T, typename W>
void spmm(const CsrMatrix<T>& a, W w, const DenseMatrix<T>& h, bool accumulate,
          DenseMatrix<T>& out) {
  const index_t k = h.cols();
  if (!accumulate) out = DenseMatrix<T>(a.rows(), k, T(0));
  for (index_t i = 0; i < a.rows(); ++i) {
    T* oi = out.data() + i * k;
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      const T av = w(e);
      const T* hj = h.data() + a.col_at(e) * k;
      for (index_t g = 0; g < k; ++g) oi[g] += av * hj[g];
    }
  }
}

template <typename T>
DenseMatrix<T> fused_va(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                        const DenseMatrix<T>& x) {
  const index_t k = h.cols(), kx = x.cols();
  DenseMatrix<T> out(a.rows(), kx, T(0));
  for (index_t i = 0; i < a.rows(); ++i) {
    T* oi = out.data() + i * kx;
    for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
      const index_t j = a.col_at(e);
      T score = dot(h.data() + i * k, h.data() + j * k, k);
      score *= a.val_at(e);
      const T* xj = x.data() + j * kx;
      for (index_t g = 0; g < kx; ++g) oi[g] += score * xj[g];
    }
  }
  return out;
}

template <typename T>
DenseMatrix<T> fused_gat(const CsrMatrix<T>& a, const std::vector<T>& s1,
                         const std::vector<T>& s2, T slope, const DenseMatrix<T>& x) {
  const index_t kx = x.cols();
  DenseMatrix<T> out(a.rows(), kx, T(0));
  std::vector<T> scores;
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t b = a.row_begin(i), e = a.row_end(i);
    if (b == e) continue;
    scores.assign(static_cast<std::size_t>(e - b), T(0));
    const T s1i = s1[static_cast<std::size_t>(i)];
    T mx = -std::numeric_limits<T>::infinity();
    for (index_t t = b; t < e; ++t) {
      const T c = s1i + s2[static_cast<std::size_t>(a.col_at(t))];
      const T lrelu = (c > T(0) ? c : slope * c) * a.val_at(t);
      scores[static_cast<std::size_t>(t - b)] = lrelu;
      mx = std::max(mx, lrelu);
    }
    T sum = T(0);
    for (index_t t = b; t < e; ++t) {
      const T ex = std::exp(scores[static_cast<std::size_t>(t - b)] - mx);
      scores[static_cast<std::size_t>(t - b)] = ex;
      sum += ex;
    }
    const T inv = T(1) / sum;
    T* oi = out.data() + i * kx;
    for (index_t t = b; t < e; ++t) {
      const T w = scores[static_cast<std::size_t>(t - b)] * inv;
      const T* xj = x.data() + a.col_at(t) * kx;
      for (index_t g = 0; g < kx; ++g) oi[g] += w * xj[g];
    }
  }
  return out;
}

}  // namespace oracle

template <typename T>
void expect_bitwise(std::span<const T> got, std::span<const T> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(std::bit_cast<Bits<T>>(got[p]), std::bit_cast<Bits<T>>(want[p]))
        << what << ": element " << p << " is " << got[p] << ", want " << want[p];
  }
}

template <typename T>
void expect_bitwise(const DenseMatrix<T>& got, const DenseMatrix<T>& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_bitwise<T>(std::span<const T>(got.data(), static_cast<std::size_t>(got.size())),
                    std::span<const T>(want.data(), static_cast<std::size_t>(want.size())),
                    what);
}

// `out` must be exactly `pattern` with new values: shape, row pointers,
// columns and source-edge map.
template <typename T>
void expect_structure_of(const CsrMatrix<T>& out, const CsrMatrix<T>& pattern,
                         const std::string& what) {
  EXPECT_TRUE(out.same_pattern(pattern)) << what << ": structure differs";
  EXPECT_TRUE(std::ranges::equal(out.source_edges(), pattern.source_edges()))
      << what << ": source_edges() differs";
}

// The public kernels, whichever twin this process picks.
template <typename T>
void check_kernels(const CsrMatrix<T>& a, index_t k, const std::string& tag) {
  const index_t n = a.rows();
  const auto x = core_operand<T>(n, k, 61 + static_cast<std::uint64_t>(k));
  const auto y = core_operand<T>(n, k, 67 + static_cast<std::uint64_t>(k));
  const auto h2 = core_operand<T>(n, k + 5, 71 + static_cast<std::uint64_t>(k));
  const std::vector<T> norms = row_l2_norms(x);
  const CsrMatrix<T> at = a.transposed();
  const auto m_vals = core_values<T>(static_cast<std::size_t>(a.nnz()), 73);

  // The dot kernels, into a fresh output, in place, and into a pooled
  // buffer that last held another pattern with a source-edge map.
  const auto want_sddmm = oracle::sddmm(a, x, y, true);
  const auto want_unw = oracle::sddmm(a, x, y, false);
  const auto want_agnn = oracle::psi_agnn(a, x, norms);
  CsrMatrix<T> out = sddmm(a, x, y);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(out.vals(), std::span<const T>(want_sddmm),
                                         "sddmm" + tag));
  expect_structure_of(out, a, "sddmm" + tag);
  CsrMatrix<T> pooled = at;
  sddmm_unweighted(a, x, y, pooled);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(pooled.vals(), std::span<const T>(want_unw),
                                         "sddmm_unweighted" + tag));
  expect_structure_of(pooled, a, "sddmm_unweighted into a pooled buffer" + tag);
  CsrMatrix<T> in_place = at;
  sddmm(in_place, y, x, in_place);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(in_place.vals(),
                                         std::span<const T>(oracle::sddmm(at, y, x, true)),
                                         "sddmm in place" + tag));
  expect_structure_of(in_place, at, "sddmm in place" + tag);
  psi_agnn(a, x, std::span<const T>(norms), pooled);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(pooled.vals(), std::span<const T>(want_agnn),
                                         "psi_agnn" + tag));
  expect_structure_of(pooled, a, "psi_agnn" + tag);
  in_place = a;
  psi_agnn(in_place, x, std::span<const T>(norms), in_place);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(in_place.vals(), std::span<const T>(want_agnn),
                                         "psi_agnn in place" + tag));

  // The SpMM family, overwriting and accumulating, own and gathered values.
  const auto own = [&a](index_t e) { return a.val_at(e); };
  const auto gathered = [&](index_t e) {
    return m_vals[static_cast<std::size_t>(at.source_edges()[static_cast<std::size_t>(e)])];
  };
  DenseMatrix<T> want, got;
  oracle::spmm(a, own, h2, false, want);
  spmm(a, h2, got);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(got, want, "spmm" + tag));
  want = core_operand<T>(n, k + 5, 79);
  got = want;
  oracle::spmm(a, own, h2, true, want);
  spmm_accumulate(a, h2, got);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(got, want, "spmm_accumulate" + tag));
  oracle::spmm(at, gathered, h2, false, want);
  spmm_transposed(at, std::span<const T>(m_vals), h2, got);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(got, want, "spmm_transposed" + tag));
  want = core_operand<T>(n, k + 5, 83);
  got = want;
  oracle::spmm(at, gathered, h2, true, want);
  spmm_accumulate_transposed(at, std::span<const T>(m_vals), h2, got);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(got, want, "spmm_accumulate_transposed" + tag));

  // The fused aggregates (dots and aggregation in one pass).
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(fused_va_aggregate(a, x, h2),
                                         oracle::fused_va(a, x, h2),
                                         "fused_va_aggregate" + tag));
  const auto s1 = core_values<T>(static_cast<std::size_t>(n), 89);
  const auto s2 = core_values<T>(static_cast<std::size_t>(n), 97);
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(
      fused_gat_aggregate(a, std::span<const T>(s1), std::span<const T>(s2), T(0.2), h2),
      oracle::fused_gat(a, s1, s2, T(0.2), h2), "fused_gat_aggregate" + tag));
}

// One twin's tiles called directly: whole rows, then rows split into the
// column-block stages of the distributed engine, where the aggregate
// continues each row's chain from the stages before it.
template <typename T, typename Twin>
void check_twin(Twin twin, const CsrMatrix<T>& a, index_t k, const std::string& tag) {
  const index_t n = a.rows();
  const auto x = core_operand<T>(n, k, 101 + static_cast<std::uint64_t>(k));
  const auto y = core_operand<T>(n, k, 103 + static_cast<std::uint64_t>(k));
  const index_t* cols = a.col_idx().data();
  const auto own = [v = a.vals().data()](index_t e) { return v[e]; };
  const auto want_dots = oracle::sddmm(a, x, y, false);
  DenseMatrix<T> want;
  oracle::spmm(a, own, y, false, want);
  const DenseMatrix<T> start = core_operand<T>(n, k, 107);
  DenseMatrix<T> want_acc = start;
  oracle::spmm(a, own, y, true, want_acc);

  std::vector<T> dots(static_cast<std::size_t>(a.nnz()));
  DenseMatrix<T> out(n, k, T(1)), acc = start;
#pragma omp parallel for schedule(dynamic, 4)
  for (index_t i = 0; i < n; ++i) {
    const index_t b = a.row_begin(i), e = a.row_end(i);
    twin.edge_dots(x.data() + i * k, y.data(), k, cols, b, e,
                   [&dots](index_t t, T d) { dots[static_cast<std::size_t>(t)] = d; });
    twin.aggregate(y.data(), k, cols, b, e, own, out.data() + i * k, false);
    twin.aggregate(y.data(), k, cols, b, e, own, acc.data() + i * k, true);
  }
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(std::span<const T>(dots),
                                         std::span<const T>(want_dots), "edge_dots" + tag));
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(out, want, "aggregate" + tag));
  ASSERT_NO_FATAL_FAILURE(expect_bitwise(acc, want_acc, "aggregate accumulating" + tag));

  for (const index_t stages : {2, 3}) {
    std::fill(dots.begin(), dots.end(), T(0));
    DenseMatrix<T> staged(n, k, T(0));
    for (index_t s = 0; s < stages; ++s) {
      const index_t c0 = s * n / stages, c1 = (s + 1) * n / stages;
#pragma omp parallel for schedule(dynamic, 4)
      for (index_t i = 0; i < n; ++i) {
        const index_t* row = cols + a.row_begin(i);
        const index_t* row_end = cols + a.row_end(i);
        const index_t b = std::lower_bound(row, row_end, c0) - cols;
        const index_t e = std::lower_bound(row, row_end, c1) - cols;
        twin.edge_dots(x.data() + i * k, y.data(), k, cols, b, e,
                       [&dots](index_t t, T d) { dots[static_cast<std::size_t>(t)] = d; });
        twin.aggregate(y.data(), k, cols, b, e, own, staged.data() + i * k, true);
      }
    }
    std::string split = " over ";
    split += std::to_string(stages);
    split += " stages";
    split += tag;
    ASSERT_NO_FATAL_FAILURE(expect_bitwise(std::span<const T>(dots),
                                           std::span<const T>(want_dots), "edge_dots" + split));
    ASSERT_NO_FATAL_FAILURE(expect_bitwise(staged, want, "aggregate" + split));
  }
}

template <typename T>
void check_core_against_oracle(int threads) {
  ScopedThreads team(threads);
  const CsrMatrix<T> a = core_graph<T>();
  ASSERT_EQ(a.max_row_nnz(), kHubEdges);
  for (const index_t k : kCoreDepths) {
    std::string tag = " k=";
    tag += std::to_string(k);
    tag += " threads=";
    tag += std::to_string(threads);
    ASSERT_NO_FATAL_FAILURE(check_kernels(a, k, tag));
    ASSERT_NO_FATAL_FAILURE(check_twin<T>(detail::SparsePortable{}, a, k, " (portable)" + tag));
#if AGNN_AVX2_TWIN
    if (detail::have_avx2()) {
      ASSERT_NO_FATAL_FAILURE(check_twin<T>(detail::SparseAvx2{}, a, k, " (avx2)" + tag));
    }
#endif
  }
}

class SparseCoreOracle : public ::testing::TestWithParam<int> {};

TEST_P(SparseCoreOracle, FloatBitwiseEqualsPlainLoops) {
  check_core_against_oracle<float>(GetParam());
}

TEST_P(SparseCoreOracle, DoubleBitwiseEqualsPlainLoops) {
  check_core_against_oracle<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, SparseCoreOracle, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           std::string name = "t";
                           name += std::to_string(pi.param);
                           return name;
                         });

// Where the CPU has AVX2, the kernels run the AVX2 twin.
TEST(SparseCore, PicksTheAvx2TwinWhereTheCpuHasIt) {
  std::string picked;
  detail::with_sparse_core([&picked](auto twin) {
    if constexpr (std::is_same_v<decltype(twin), detail::SparsePortable>) {
      picked = "portable";
    } else {
      picked = "avx2";
    }
  });
  EXPECT_EQ(picked, detail::have_avx2() ? "avx2" : "portable");
}

}  // namespace
}  // namespace agnn
