// Dense kernels: the MM building block of Table 2 plus the element-wise and
// vector operations (projection, replication, summation, Hadamard ops,
// row norms) that the global formulations are written in.
//
// The three GEMM forms (matmul, matmul_nt, matmul_tn) run one
// register-blocked core (tensor/gemm_core.hpp), bitwise equal to the plain
// per-element loops. All other O(n*k) and larger loops are OpenMP-parallel
// over rows; feature dimensions (k) are kept in the innermost loop so the
// compiler can vectorize over the contiguous row storage.
//
// Every kernel has an out-parameter overload writing into caller-provided
// storage (no allocation within capacity); the by-value signatures are thin
// wrappers. Out-parameters must not alias inputs unless noted.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "obs/obs_scope.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/gemm_core.hpp"

namespace agnn {

namespace detail {

struct MatmulNtScratch;
struct MatmulTnScratch;

// Rows of C per matmul task: four 4-row register tiles.
inline constexpr index_t kGemmRowBlock = 16;
// Rows of A and B per matmul_tn panel. The core sweeps a panel once per
// 4-row group of C, so the pair should stay in L2 while it does.
inline constexpr index_t kGemmTnPanel = 256;

// C (n x m) = A (n x k) * B (k x m), all row-major, in 16-row tasks.
template <typename T>
void gemm_rows(GemmKernel<T> kernel, const T* a, const T* b, T* c, index_t n,
               index_t k, index_t m) {
  const index_t blocks = (n + kGemmRowBlock - 1) / kGemmRowBlock;
#pragma omp parallel for schedule(static)
  for (index_t blk = 0; blk < blocks; ++blk) {
    const index_t r0 = blk * kGemmRowBlock;
    kernel({a + r0 * k, k, 1, b, m, c + r0 * m, m,
            std::min(kGemmRowBlock, n - r0), m, k, false});
  }
}

// The rows [lo, hi) of [0, n) that `schedule(static)` gives thread `tid` of
// a team of `team`: one contiguous block each, n / team rows, and one more
// for the first n % team threads (the split of libgomp and of LLVM's
// OpenMP runtime).
inline std::pair<index_t, index_t> static_block(index_t n, int team, int tid) {
  const index_t q = n / team, extra = n % team;
  const index_t lo = tid * q + std::min<index_t>(tid, extra);
  return {lo, lo + q + (tid < extra ? 1 : 0)};
}

// The three GEMM forms over an explicit core twin; the public functions
// below pass gemm_kernel<T>().
template <typename T>
void matmul_with(GemmKernel<T> kernel, const DenseMatrix<T>& a,
                 const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.cols() == b.rows(), "matmul: inner dimensions must agree");
  AGNN_ASSERT(&c != &a && &c != &b, "matmul: output cannot alias an input");
  const index_t n = a.rows(), k = a.cols(), m = b.cols();
  c.resize(n, m);
  gemm_rows(kernel, a.data(), b.data(), c.data(), n, k, m);
}

// C = A B^T is the matmul path against B^T, copied once into this thread's
// k x m scratch. Each element keeps the dot product's l order.
template <typename T>
void matmul_nt_with(GemmKernel<T> kernel, const DenseMatrix<T>& a,
                    const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.cols() == b.cols(), "matmul_nt: column counts must agree");
  AGNN_ASSERT(&c != &a && &c != &b, "matmul_nt: output cannot alias an input");
  const index_t n = a.rows(), k = a.cols(), m = b.rows();
  T* bt = thread_scratch<T, MatmulNtScratch>(static_cast<std::size_t>(k * m));
  for (index_t j = 0; j < m; ++j) {
    const T* bj = b.data() + j * k;
    for (index_t l = 0; l < k; ++l) bt[l * m + j] = bj[l];
  }
  c.resize(n, m);
  gemm_rows(kernel, a.data(), bt, c.data(), n, k, m);
}

// C = A^T B, reduced over the n rows. Each thread accumulates a ka x kb
// partial over the row block `schedule(static)` gives it, in panels that
// continue the partial's values; the partials are then summed into a zeroed
// C in thread order. The bits depend on the team size, as they always have,
// and on nothing else.
template <typename T>
void matmul_tn_with(GemmKernel<T> kernel, const DenseMatrix<T>& a,
                    const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.rows() == b.rows(), "matmul_tn: row counts must agree");
  AGNN_ASSERT(&c != &a && &c != &b, "matmul_tn: output cannot alias an input");
  const index_t n = a.rows(), ka = a.cols(), kb = b.cols(), size = ka * kb;
  c.resize(ka, kb);
#if defined(_OPENMP)
  const int max_team = omp_get_max_threads();
#else
  const int max_team = 1;
#endif
  T* partials = thread_scratch<T, MatmulTnScratch>(
      static_cast<std::size_t>(max_team) * static_cast<std::size_t>(size));
  int team = 1;
#pragma omp parallel
  {
#if defined(_OPENMP)
    const int threads = omp_get_num_threads(), tid = omp_get_thread_num();
#else
    const int threads = 1, tid = 0;
#endif
    if (tid == 0) team = threads;
    T* part = partials + tid * size;
    std::fill(part, part + size, T(0));
    const auto [lo, hi] = static_block(n, threads, tid);
    for (index_t i0 = lo; i0 < hi; i0 += kGemmTnPanel) {
      kernel({a.data() + i0 * ka, 1, ka, b.data() + i0 * kb, kb, part, kb, ka,
              kb, std::min(kGemmTnPanel, hi - i0), true});
    }
  }
  c.fill(T(0));
  for (int t = 0; t < team; ++t) {
    const T* part = partials + t * size;
    for (index_t p = 0; p < size; ++p) c.data()[p] += part[p];
  }
}

}  // namespace detail

// C = A * B                                                     (MM, Table 2)
template <typename T>
void matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_KERNEL_SCOPE("matmul", obs::gemm_traffic_bytes(
                                  static_cast<std::uint64_t>(a.rows()),
                                  static_cast<std::uint64_t>(a.cols()),
                                  static_cast<std::uint64_t>(b.cols()), sizeof(T)));
  detail::matmul_with(detail::gemm_kernel<T>(), a, b, c);
}

template <typename T>
DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  matmul(a, b, c);
  return c;
}

// C = A^T * B  (used for weight gradients Y = H^T (...) G)
template <typename T>
void matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_KERNEL_SCOPE("matmul_tn", obs::gemm_traffic_bytes(
                                     static_cast<std::uint64_t>(a.cols()),
                                     static_cast<std::uint64_t>(a.rows()),
                                     static_cast<std::uint64_t>(b.cols()), sizeof(T)));
  detail::matmul_tn_with(detail::gemm_kernel<T>(), a, b, c);
}

template <typename T>
DenseMatrix<T> matmul_tn(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  matmul_tn(a, b, c);
  return c;
}

// C = A * B^T  (used when multiplying by W^T in backward passes)
template <typename T>
void matmul_nt(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_KERNEL_SCOPE("matmul_nt", obs::gemm_traffic_bytes(
                                     static_cast<std::uint64_t>(a.rows()),
                                     static_cast<std::uint64_t>(a.cols()),
                                     static_cast<std::uint64_t>(b.rows()), sizeof(T)));
  detail::matmul_nt_with(detail::gemm_kernel<T>(), a, b, c);
}

template <typename T>
DenseMatrix<T> matmul_nt(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  matmul_nt(a, b, c);
  return c;
}

template <typename T>
void transpose(const DenseMatrix<T>& a, DenseMatrix<T>& c) {
  AGNN_ASSERT(&c != &a, "transpose: output cannot alias the input");
  c.resize(a.cols(), a.rows());
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) c(j, i) = a(i, j);
}

template <typename T>
DenseMatrix<T> transpose(const DenseMatrix<T>& a) {
  DenseMatrix<T> c;
  transpose(a, c);
  return c;
}

// y = A * x (matrix-vector; used for s = H' a in GAT)
template <typename T>
void matvec(const DenseMatrix<T>& a, std::span<const T> x, std::vector<T>& y) {
  AGNN_KERNEL_SCOPE("matvec", obs::elementwise_traffic_bytes(
                                  static_cast<std::uint64_t>(a.size() + a.cols() + a.rows()),
                                  1, sizeof(T)));
  AGNN_ASSERT(a.cols() == static_cast<index_t>(x.size()), "matvec: dimension mismatch");
  y.resize(static_cast<std::size_t>(a.rows()));
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows(); ++i) {
    const T* ai = a.data() + i * a.cols();
    T acc = T(0);
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

template <typename T>
std::vector<T> matvec(const DenseMatrix<T>& a, std::span<const T> x) {
  std::vector<T> y;
  matvec(a, x, y);
  return y;
}

// y = A^T * x (used for parameter-vector gradients da = H'^T ds)
template <typename T>
void matvec_tn(const DenseMatrix<T>& a, std::span<const T> x, std::vector<T>& y) {
  AGNN_KERNEL_SCOPE("matvec_tn", obs::elementwise_traffic_bytes(
                                     static_cast<std::uint64_t>(a.size() + a.rows() + a.cols()),
                                     1, sizeof(T)));
  AGNN_ASSERT(a.rows() == static_cast<index_t>(x.size()), "matvec_tn: dimension mismatch");
  y.assign(static_cast<std::size_t>(a.cols()), T(0));
  for (index_t i = 0; i < a.rows(); ++i) {
    const T xi = x[static_cast<std::size_t>(i)];
    const T* ai = a.data() + i * a.cols();
    for (index_t j = 0; j < a.cols(); ++j) y[static_cast<std::size_t>(j)] += ai[j] * xi;
  }
}

template <typename T>
std::vector<T> matvec_tn(const DenseMatrix<T>& a, std::span<const T> x) {
  std::vector<T> y;
  matvec_tn(a, x, y);
  return y;
}

// C += alpha * A
template <typename T>
void axpy(T alpha, const DenseMatrix<T>& a, DenseMatrix<T>& c) {
  AGNN_KERNEL_SCOPE("axpy", obs::elementwise_traffic_bytes(
                                static_cast<std::uint64_t>(a.size()), 3, sizeof(T)));
  AGNN_ASSERT(a.same_shape(c), "axpy: shape mismatch");
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.size(); ++i) c.data()[i] += alpha * a.data()[i];
}

// Element-wise kernels. The output may alias either input (pure per-element
// reads before writes), which the in-place gradient paths rely on.
template <typename T>
void add(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.same_shape(b), "add: shape mismatch");
  c.resize(a.rows(), a.cols());
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] + b.data()[i];
}

template <typename T>
DenseMatrix<T> add(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  add(a, b, c);
  return c;
}

template <typename T>
void sub(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.same_shape(b), "sub: shape mismatch");
  c.resize(a.rows(), a.cols());
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] - b.data()[i];
}

template <typename T>
DenseMatrix<T> sub(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  sub(a, b, c);
  return c;
}

// C = A ⊙ B (element-wise Hadamard product)
template <typename T>
void hadamard(const DenseMatrix<T>& a, const DenseMatrix<T>& b, DenseMatrix<T>& c) {
  AGNN_ASSERT(a.same_shape(b), "hadamard: shape mismatch");
  c.resize(a.rows(), a.cols());
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
}

template <typename T>
DenseMatrix<T> hadamard(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  DenseMatrix<T> c;
  hadamard(a, b, c);
  return c;
}

template <typename T>
void scale_inplace(DenseMatrix<T>& a, T alpha) {
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.size(); ++i) a.data()[i] *= alpha;
}

// rep_i(x) = x * 1^T (Table 2): replicate a column vector `cols` times.
// Only used by reference paths and tests — the production kernels keep
// replications virtual (Section 6.1).
template <typename T>
DenseMatrix<T> replicate_cols(std::span<const T> x, index_t cols) {
  DenseMatrix<T> c(static_cast<index_t>(x.size()), cols);
  for (index_t i = 0; i < c.rows(); ++i)
    for (index_t j = 0; j < cols; ++j) c(i, j) = x[static_cast<std::size_t>(i)];
  return c;
}

// sum(X) = X * 1 (Table 2): per-row summation.
template <typename T>
void row_sums(const DenseMatrix<T>& a, std::vector<T>& s) {
  s.resize(static_cast<std::size_t>(a.rows()));
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows(); ++i) {
    const T* ai = a.data() + i * a.cols();
    T acc = T(0);
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j];
    s[static_cast<std::size_t>(i)] = acc;
  }
}

template <typename T>
std::vector<T> row_sums(const DenseMatrix<T>& a) {
  std::vector<T> s;
  row_sums(a, s);
  return s;
}

// The vector n of the AGNN formulation, n_i = ||h_i||_2, for the rows
// [r0, r1) of a, into s[r0, r1).
template <typename T>
void row_l2_norms(const DenseMatrix<T>& a, index_t r0, index_t r1, std::span<T> s) {
  AGNN_ASSERT(0 <= r0 && r0 <= r1 && r1 <= a.rows() &&
                  r1 <= static_cast<index_t>(s.size()),
              "row_l2_norms: row range out of bounds");
#pragma omp parallel for schedule(static)
  for (index_t i = r0; i < r1; ++i) {
    const T* ai = a.data() + i * a.cols();
    T acc = T(0);
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * ai[j];
    s[static_cast<std::size_t>(i)] = std::sqrt(acc);
  }
}

template <typename T>
void row_l2_norms(const DenseMatrix<T>& a, std::vector<T>& s) {
  s.resize(static_cast<std::size_t>(a.rows()));
  row_l2_norms(a, 0, a.rows(), std::span<T>(s));
}

template <typename T>
std::vector<T> row_l2_norms(const DenseMatrix<T>& a) {
  std::vector<T> s;
  row_l2_norms(a, s);
  return s;
}

// AGNN's normalization pair, shared by the sequential layer and the
// distributed engine. unit_rows writes the row norms of h to `norms` and
// hhat_i = h_i / |h_i| to `hhat` (a zero row stays zero); `hhat` must not
// alias `h`.
template <typename T>
void unit_rows(const DenseMatrix<T>& h, std::vector<T>& norms, DenseMatrix<T>& hhat) {
  AGNN_KERNEL_SCOPE("unit_rows",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(h.size()), 2, sizeof(T)));
  AGNN_ASSERT(&hhat != &h, "unit_rows: hhat must not alias h");
  row_l2_norms(h, norms);
  const index_t k = h.cols();
  hhat.resize(h.rows(), k);
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < h.rows(); ++i) {
    const T ni = norms[static_cast<std::size_t>(i)];
    const T* hi = h.data() + i * k;
    T* oi = hhat.data() + i * k;
    if (ni <= T(0)) {
      for (index_t j = 0; j < k; ++j) oi[j] = hi[j];
      continue;
    }
    for (index_t j = 0; j < k; ++j) oi[j] = hi[j] / ni;
  }
}

// The chain rule through h_i / |h_i|, in place: g_i <- (g_i - s_i hhat_i) /
// |h_i|, and zero where |h_i| = 0.
template <typename T>
void project_rows(DenseMatrix<T>& g, std::span<const T> s, const DenseMatrix<T>& hhat,
                  std::span<const T> norms) {
  AGNN_KERNEL_SCOPE("project_rows",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(g.size()), 3, sizeof(T)));
  AGNN_ASSERT(g.same_shape(hhat), "project_rows: shape mismatch");
  AGNN_ASSERT(static_cast<index_t>(s.size()) == g.rows() &&
                  static_cast<index_t>(norms.size()) == g.rows(),
              "project_rows: one coefficient and one norm per row");
  const index_t k = g.cols();
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < g.rows(); ++i) {
    const T ni = norms[static_cast<std::size_t>(i)];
    T* row = g.data() + i * k;
    if (ni <= T(0)) {
      for (index_t j = 0; j < k; ++j) row[j] = T(0);
      continue;
    }
    const T coef = s[static_cast<std::size_t>(i)];
    const T* hh = hhat.data() + i * k;
    const T inv = T(1) / ni;
    for (index_t j = 0; j < k; ++j) row[j] = (row[j] - coef * hh[j]) * inv;
  }
}

// C = x * y^T (outer product; used by GAT backward: dH' += ds1 a1^T + ...)
template <typename T>
void outer(std::span<const T> x, std::span<const T> y, DenseMatrix<T>& c) {
  c.resize(static_cast<index_t>(x.size()), static_cast<index_t>(y.size()));
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < c.rows(); ++i) {
    T* ci = c.data() + i * c.cols();
    const T xi = x[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < c.cols(); ++j) ci[j] = xi * y[static_cast<std::size_t>(j)];
  }
}

template <typename T>
DenseMatrix<T> outer(std::span<const T> x, std::span<const T> y) {
  DenseMatrix<T> c;
  outer(x, y, c);
  return c;
}

// C += x * y^T
template <typename T>
void add_outer_inplace(DenseMatrix<T>& c, std::span<const T> x, std::span<const T> y) {
  AGNN_KERNEL_SCOPE("add_outer_inplace",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(c.size()), 2, sizeof(T)) +
                        (x.size() + y.size()) * sizeof(T));
  AGNN_ASSERT(c.rows() == static_cast<index_t>(x.size()) &&
                  c.cols() == static_cast<index_t>(y.size()),
              "add_outer_inplace: shape mismatch");
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < c.rows(); ++i) {
    T* ci = c.data() + i * c.cols();
    const T xi = x[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < c.cols(); ++j) ci[j] += xi * y[static_cast<std::size_t>(j)];
  }
}

// OUT = alpha * A[:, c0 : c0 + k] and C[:, c0 : c0 + X.cols()] += alpha * X:
// one attention head's block of a matrix whose heads sit side by side.
template <typename T>
void copy_cols(const DenseMatrix<T>& a, index_t c0, index_t k, T alpha,
               DenseMatrix<T>& out) {
  AGNN_ASSERT(c0 >= 0 && k >= 0 && c0 + k <= a.cols(), "copy_cols: column range");
  AGNN_ASSERT(&out != &a, "copy_cols: out must not alias the source");
  out.resize(a.rows(), k);
  for (index_t i = 0; i < a.rows(); ++i) {
    const T* ai = a.data() + i * a.cols() + c0;
    T* oi = out.data() + i * k;
    for (index_t j = 0; j < k; ++j) oi[j] = alpha * ai[j];
  }
}

template <typename T>
void axpy_cols(T alpha, const DenseMatrix<T>& x, index_t c0, DenseMatrix<T>& c) {
  AGNN_ASSERT(x.rows() == c.rows() && c0 >= 0 && c0 + x.cols() <= c.cols(),
              "axpy_cols: shape mismatch");
  const index_t k = x.cols();
  for (index_t i = 0; i < c.rows(); ++i) {
    const T* xi = x.data() + i * k;
    T* ci = c.data() + i * c.cols() + c0;
    for (index_t j = 0; j < k; ++j) ci[j] += alpha * xi[j];
  }
}

// OUT[i, :] = A[rows[i], :] — the feature-gather of the serving path
// (ego-network feature assembly and the between-layer compaction of the
// block-diagonal batched forward). Forward-only: gathers have no backward
// here because serving never trains. Row-local, so a gathered row is
// byte-identical to its source row regardless of batching or thread count.
template <typename T>
void gather_rows(const DenseMatrix<T>& a, std::span<const index_t> rows,
                 DenseMatrix<T>& out) {
  AGNN_ASSERT(&out != &a, "gather_rows: out must not alias the source");
  const index_t k = a.cols();
  out.resize(static_cast<index_t>(rows.size()), k);
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < static_cast<index_t>(rows.size()); ++i) {
    const index_t src = rows[static_cast<std::size_t>(i)];
    AGNN_ASSERT(src >= 0 && src < a.rows(), "gather_rows: row index out of range");
    const T* ai = a.data() + src * k;
    T* oi = out.data() + i * k;
    for (index_t j = 0; j < k; ++j) oi[j] = ai[j];
  }
}

template <typename T>
DenseMatrix<T> gather_rows(const DenseMatrix<T>& a, std::span<const index_t> rows) {
  DenseMatrix<T> out;
  gather_rows(a, rows, out);
  return out;
}

template <typename T>
T frobenius_norm(const DenseMatrix<T>& a) {
  double acc = 0;
  for (index_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * static_cast<double>(a.data()[i]);
  }
  return static_cast<T>(std::sqrt(acc));
}

template <typename T>
T max_abs_diff(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  AGNN_ASSERT(a.same_shape(b), "max_abs_diff: shape mismatch");
  T m = T(0);
  for (index_t i = 0; i < a.size(); ++i) {
    const T d = std::abs(a.data()[i] - b.data()[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace agnn
