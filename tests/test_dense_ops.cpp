// Unit and property tests for the dense kernels against naive oracles, and
// the bitwise oracle of the register-blocked GEMM core.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "tensor/dense_ops.hpp"
#include "tensor/reference_impls.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::Bits;
using testing::expect_matrix_near;
using testing::random_dense;
using testing::ScopedThreads;

TEST(DenseOps, MatmulSmallKnownValues) {
  DenseMatrix<double> a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  DenseMatrix<double> b(3, 2, std::vector<double>{7, 8, 9, 10, 11, 12});
  auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(DenseOps, MatmulDimensionMismatchThrows) {
  DenseMatrix<double> a(2, 3), b(2, 2);
  EXPECT_THROW(matmul(a, b), std::logic_error);
}

class MatmulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSweep, MatchesNaiveOracle) {
  const auto [n, k, m] = GetParam();
  auto a = random_dense<double>(n, k, 11);
  auto b = random_dense<double>(k, m, 13);
  expect_matrix_near(matmul(a, b), reference::matmul_naive(a, b), 1e-10, "matmul");
}

TEST_P(MatmulSweep, TransposedVariantsMatchExplicitTranspose) {
  const auto [n, k, m] = GetParam();
  auto a = random_dense<double>(n, k, 17);
  auto b = random_dense<double>(n, m, 19);
  // A^T B == transpose(A) * B
  expect_matrix_near(matmul_tn(a, b), reference::matmul_naive(transpose(a), b),
                     1e-10, "matmul_tn");
  auto c = random_dense<double>(m, k, 23);
  // A C^T == A * transpose(C)
  expect_matrix_near(matmul_nt(a.slice_rows(0, n), c),
                     reference::matmul_naive(a, transpose(c)), 1e-10, "matmul_nt");
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulSweep,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{7, 5, 3}, std::tuple{16, 16, 16},
                                           std::tuple{33, 8, 129}, std::tuple{64, 1, 64}));

TEST(DenseOps, TransposeInvolution) {
  auto a = random_dense<float>(13, 7, 29);
  expect_matrix_near(transpose(transpose(a)), a, 0.0, "transpose^2");
}

TEST(DenseOps, MatvecMatchesMatmul) {
  auto a = random_dense<double>(9, 5, 31);
  auto x = random_dense<double>(5, 1, 37);
  const auto y = matvec(a, std::span<const double>(x.data(), 5));
  const auto y_ref = matmul(a, x);
  for (index_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref(i, 0), 1e-12);
  }
}

TEST(DenseOps, MatvecTnMatchesTransposedMatmul) {
  auto a = random_dense<double>(9, 5, 41);
  auto x = random_dense<double>(9, 1, 43);
  const auto y = matvec_tn(a, std::span<const double>(x.data(), 9));
  const auto y_ref = matmul(transpose(a), x);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref(i, 0), 1e-12);
  }
}

TEST(DenseOps, AddSubHadamardElementwise) {
  auto a = random_dense<double>(4, 4, 47);
  auto b = random_dense<double>(4, 4, 53);
  const auto s = add(a, b);
  const auto d = sub(a, b);
  const auto h = hadamard(a, b);
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.data()[i], a.data()[i] + b.data()[i]);
    EXPECT_DOUBLE_EQ(d.data()[i], a.data()[i] - b.data()[i]);
    EXPECT_DOUBLE_EQ(h.data()[i], a.data()[i] * b.data()[i]);
  }
}

TEST(DenseOps, AxpyAccumulates) {
  auto a = random_dense<double>(3, 3, 59);
  DenseMatrix<double> c(3, 3, 1.0);
  axpy(2.0, a, c);
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.data()[i], 1.0 + 2.0 * a.data()[i]);
  }
}

TEST(DenseOps, ReplicateColsImplementsRep) {
  std::vector<double> x{1, 2, 3};
  auto r = replicate_cols<double>(x, 4);
  EXPECT_EQ(r.rows(), 3);
  EXPECT_EQ(r.cols(), 4);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(r(0, j), 1);
    EXPECT_DOUBLE_EQ(r(2, j), 3);
  }
}

TEST(DenseOps, RowSumsImplementsSum) {
  DenseMatrix<double> a(2, 3, std::vector<double>{1, 2, 3, -1, 0, 1});
  const auto s = row_sums(a);
  EXPECT_DOUBLE_EQ(s[0], 6);
  EXPECT_DOUBLE_EQ(s[1], 0);
}

TEST(DenseOps, RowL2Norms) {
  DenseMatrix<double> a(2, 2, std::vector<double>{3, 4, 0, 0});
  const auto n = row_l2_norms(a);
  EXPECT_DOUBLE_EQ(n[0], 5);
  EXPECT_DOUBLE_EQ(n[1], 0);
}

TEST(DenseOps, OuterProduct) {
  std::vector<double> x{1, 2}, y{3, 4, 5};
  const auto o = outer<double>(x, y);
  EXPECT_EQ(o.rows(), 2);
  EXPECT_EQ(o.cols(), 3);
  EXPECT_DOUBLE_EQ(o(1, 2), 10);
  DenseMatrix<double> acc(2, 3, 1.0);
  add_outer_inplace<double>(acc, x, y);
  EXPECT_DOUBLE_EQ(acc(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(acc(1, 2), 11.0);
}

TEST(DenseOps, FrobeniusNormAndMaxAbsDiff) {
  DenseMatrix<double> a(1, 2, std::vector<double>{3, 4});
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  DenseMatrix<double> b(1, 2, std::vector<double>{3, 4.5});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

// Property: (A B) C == A (B C) — associativity of the MM kernel to FP slop.
TEST(DenseOps, MatmulAssociativity) {
  auto a = random_dense<double>(6, 5, 61);
  auto b = random_dense<double>(5, 7, 67);
  auto c = random_dense<double>(7, 3, 71);
  expect_matrix_near(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-9,
                     "associativity");
}

// ---- GEMM bitwise oracle -----------------------------------------------------
// The plain loops that matmul, matmul_nt and matmul_tn ran before the
// register-blocked core (DESIGN.md §13). The core promises their bits: per
// element, the same products added in l order from zero, and for matmul_tn
// the same per-thread partials summed in thread order.
namespace oracle {

template <typename T>
DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const index_t n = a.rows(), k = a.cols(), m = b.cols();
  DenseMatrix<T> c(n, m);
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    T* ci = c.data() + i * m;
    const T* ai = a.data() + i * k;
    for (index_t j = 0; j < m; ++j) ci[j] = T(0);
    for (index_t l = 0; l < k; ++l) {
      const T ail = ai[l];
      const T* bl = b.data() + l * m;
      for (index_t j = 0; j < m; ++j) ci[j] += ail * bl[j];
    }
  }
  return c;
}

template <typename T>
DenseMatrix<T> matmul_nt(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const index_t n = a.rows(), k = a.cols(), m = b.rows();
  DenseMatrix<T> c(n, m);
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    const T* ai = a.data() + i * k;
    T* ci = c.data() + i * m;
    for (index_t j = 0; j < m; ++j) {
      const T* bj = b.data() + j * k;
      T acc = T(0);
      for (index_t l = 0; l < k; ++l) acc += ai[l] * bj[l];
      ci[j] = acc;
    }
  }
  return c;
}

template <typename T>
DenseMatrix<T> matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  const index_t n = a.rows(), ka = a.cols(), kb = b.cols();
  DenseMatrix<T> c(ka, kb, T(0));
#if defined(_OPENMP)
  const int n_threads = omp_get_max_threads();
#else
  const int n_threads = 1;
#endif
  std::vector<DenseMatrix<T>> locals(static_cast<std::size_t>(n_threads));
#pragma omp parallel
  {
#if defined(_OPENMP)
    const int tid = omp_get_thread_num();
#else
    const int tid = 0;
#endif
    DenseMatrix<T>& local = locals[static_cast<std::size_t>(tid)];
    local.resize(ka, kb);
    local.fill(T(0));
#pragma omp for schedule(static)
    for (index_t i = 0; i < n; ++i) {
      const T* ai = a.data() + i * ka;
      const T* bi = b.data() + i * kb;
      for (index_t l = 0; l < ka; ++l) {
        T* row = local.data() + l * kb;
        const T ail = ai[l];
        for (index_t j = 0; j < kb; ++j) row[j] += ail * bi[j];
      }
    }
  }
  for (const auto& local : locals) {
    if (local.size() != c.size()) continue;
    for (index_t p = 0; p < c.size(); ++p) c.data()[p] += local.data()[p];
  }
  return c;
}

}  // namespace oracle

template <typename T>
void expect_bitwise(const DenseMatrix<T>& got, const DenseMatrix<T>& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(std::bit_cast<Bits<T>>(got.data()[p]),
              std::bit_cast<Bits<T>>(want.data()[p]))
        << what << ": element " << p << " is " << got.data()[p] << ", want "
        << want.data()[p];
  }
}

// Uniform values with every seventh element -0 and every eleventh
// subnormal, so a chain that skipped its +0 start (0 + -0 is +0) or flushed
// subnormals would show.
template <typename T>
DenseMatrix<T> gemm_operand(index_t rows, index_t cols, std::uint64_t seed) {
  auto m = random_dense<T>(rows, cols, seed);
  for (index_t p = 0; p < m.size(); ++p) {
    if (p % 7 == 3) m.data()[p] = T(-0.0);
    if (p % 11 == 5) m.data()[p] = std::numeric_limits<T>::denorm_min() * T(3);
  }
  return m;
}

// Every kind of remainder: empty and 1-row inputs, row counts off the
// 4-row tile and the 16-row task, depths from 1 up, and column counts below,
// at and between one and two vectors of either twin.
constexpr index_t kOracleRows[] = {0, 1, 5, 17, 1003};
constexpr index_t kOracleDepths[] = {1, 3, 37, 64};
constexpr index_t kOracleCols[] = {1, 7, 16, 17, 33, 70};

// The core twins this host can run, by name: the pick the public functions
// make, the portable twin, and the AVX2 twin where the CPU has AVX2.
template <typename T>
std::vector<std::pair<std::string, detail::GemmKernel<T>>> gemm_twins() {
  std::vector<std::pair<std::string, detail::GemmKernel<T>>> twins{
      {"portable", &detail::gemm_portable<T>}};
#if AGNN_AVX2_TWIN
  if (detail::have_avx2()) twins.emplace_back("avx2", &detail::gemm_avx2<T>);
#endif
  return twins;
}

template <typename T>
void check_gemm_against_oracle(int threads) {
  ScopedThreads team(threads);
  const auto twins = gemm_twins<T>();
  for (const index_t n : kOracleRows) {
    for (const index_t k : kOracleDepths) {
      for (const index_t m : kOracleCols) {
        const std::string shape = " n=" + std::to_string(n) + " k=" +
                                  std::to_string(k) + " m=" + std::to_string(m) +
                                  " threads=" + std::to_string(threads);
        const auto seed = static_cast<std::uint64_t>(n * 10007 + k * 101 + m);
        const auto a = gemm_operand<T>(n, k, seed);
        const auto b = gemm_operand<T>(k, m, seed + 1);
        const auto b_nt = gemm_operand<T>(m, k, seed + 2);
        const auto b_tn = gemm_operand<T>(n, m, seed + 3);
        const auto want = oracle::matmul(a, b);
        const auto want_nt = oracle::matmul_nt(a, b_nt);
        const auto want_tn = oracle::matmul_tn(a, b_tn);
        ASSERT_NO_FATAL_FAILURE(expect_bitwise(matmul(a, b), want, "matmul" + shape));
        ASSERT_NO_FATAL_FAILURE(
            expect_bitwise(matmul_nt(a, b_nt), want_nt, "matmul_nt" + shape));
        ASSERT_NO_FATAL_FAILURE(
            expect_bitwise(matmul_tn(a, b_tn), want_tn, "matmul_tn" + shape));
        for (const auto& [name, kernel] : twins) {
          DenseMatrix<T> c;
          detail::matmul_with(kernel, a, b, c);
          ASSERT_NO_FATAL_FAILURE(expect_bitwise(c, want, name + " matmul" + shape));
          detail::matmul_nt_with(kernel, a, b_nt, c);
          ASSERT_NO_FATAL_FAILURE(
              expect_bitwise(c, want_nt, name + " matmul_nt" + shape));
          detail::matmul_tn_with(kernel, a, b_tn, c);
          ASSERT_NO_FATAL_FAILURE(
              expect_bitwise(c, want_tn, name + " matmul_tn" + shape));
        }
      }
    }
  }
}

class GemmOracle : public ::testing::TestWithParam<int> {};

TEST_P(GemmOracle, FloatBitwiseEqualsPlainLoops) {
  check_gemm_against_oracle<float>(GetParam());
}

TEST_P(GemmOracle, DoubleBitwiseEqualsPlainLoops) {
  check_gemm_against_oracle<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmOracle, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           return "t" + std::to_string(pi.param);
                         });

// Where the CPU has AVX2, the public functions run the AVX2 twin.
TEST(GemmCore, PicksTheAvx2TwinWhereTheCpuHasIt) {
#if AGNN_AVX2_TWIN
  if (detail::have_avx2()) {
    EXPECT_EQ(detail::gemm_kernel<float>(), &detail::gemm_avx2<float>);
    EXPECT_EQ(detail::gemm_kernel<double>(), &detail::gemm_avx2<double>);
    return;
  }
#endif
  EXPECT_EQ(detail::gemm_kernel<float>(), &detail::gemm_portable<float>);
  EXPECT_EQ(detail::gemm_kernel<double>(), &detail::gemm_portable<double>);
}

}  // namespace
}  // namespace agnn
