// Losses on the final-layer feature matrix H^L.
//
// Each loss returns both the scalar value and nabla_{H^L} L, the gradient
// that bootstraps the backward recursion (Eq. 4):
//   G^L = nabla_{H^L} L ⊙ sigma'(Z^L).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "obs/obs_scope.hpp"
#include "tensor/dense_matrix.hpp"

namespace agnn {

template <typename T>
struct LossResult {
  T value = T(0);
  DenseMatrix<T> grad;  // dL/dH, same shape as H
};

namespace detail {

// One active row of softmax_cross_entropy: writes g_i and returns
// log_z - h_iy. A row-sum term whose exp is exactly +0 is skipped. An entry
// whose argument h_ij - log_z is at least `may_flush` = ln(min() * active) + 1
// keeps the plain formula: a non-label p_ij / active there is at least
// e min(), and the label's (p_iy - 1) / active is +0 or above 2^-24 / active.
// Below it, an entry under min() is written as +0, with no exp called for a
// non-label entry whose argument alone guarantees that.
template <typename T>
double cross_entropy_row(const T* hi, index_t c, index_t y, T inv_n, T may_flush, T* gi) {
  using lim = std::numeric_limits<T>;
  constexpr double kLn2 = 0.6931471805599453;
  // exp(x) rounds to +0 below ln(denorm_min) - 1 (-104.28 in float, -745.44
  // in double); below ln(min) - 1 (-88.34, -709.40) it is under min() / e,
  // and so is a non-label entry exp(x) / active.
  constexpr T kExpIsZero = static_cast<T>((lim::min_exponent - lim::digits) * kLn2 - 1);
  constexpr T kGradFlushes = static_cast<T>((lim::min_exponent - 1) * kLn2 - 1);
  T mx = hi[0];
  for (index_t j = 1; j < c; ++j) mx = std::max(mx, hi[j]);
  T sum = T(0);
  for (index_t j = 0; j < c; ++j) {
    const T x = hi[j] - mx;
    if (x < kExpIsZero) continue;  // a NaN x still propagates
    sum += std::exp(x);
  }
  const T log_z = std::log(sum) + mx;
  for (index_t j = 0; j < c; ++j) {
    const T x = hi[j] - log_z;
    const T label = j == y ? T(1) : T(0);
    if (x >= may_flush) {
      gi[j] = (std::exp(x) - label) * inv_n;  // softmax p - [j = y]
    } else if (j != y && x < kGradFlushes) {
      gi[j] = T(0);
    } else {  // a NaN x lands here and propagates
      const T g = (std::exp(x) - label) * inv_n;
      gi[j] = std::abs(g) < lim::min() ? T(0) : g;
    }
  }
  return static_cast<double>(log_z - hi[y]);
}

}  // namespace detail

// Softmax cross-entropy over rows (node classification). `labels[i]` is the
// class of vertex i; `mask` (optional) selects the training vertices —
// unmasked rows contribute neither loss nor gradient.
// `normalize_count`, when positive, overrides the divisor (the distributed
// engine normalizes local blocks by the *global* active-vertex count).
// The out-parameter form reuses `out.grad`'s storage across steps (no
// allocation within capacity) — the training loops call this every epoch.
//
// The gradient holds no subnormal (DESIGN.md §18): a saturated model puts
// logits far below their row's maximum, and every backward GEMM that reads a
// subnormal entry of G pays a microcode assist per operation. An entry below
// numeric_limits<T>::min() in magnitude is written as +0, and where the
// argument alone guarantees that, exp is not called. A row-sum term is
// skipped only where its exp is exactly +0. So the loss and every entry at or
// above min() keep the bits of the plain formula
//   g_ij = (exp(h_ij - log_z) - [j = y_i]) / active.
template <typename T>
void softmax_cross_entropy(const DenseMatrix<T>& h,
                           std::span<const index_t> labels, LossResult<T>& out,
                           std::span<const std::uint8_t> mask = {},
                           index_t normalize_count = -1) {
  AGNN_KERNEL_SCOPE("softmax_cross_entropy",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(h.size()), 2, sizeof(T)));
  AGNN_ASSERT(static_cast<index_t>(labels.size()) == h.rows(),
              "cross entropy: one label per row required");
  AGNN_ASSERT(mask.empty() || static_cast<index_t>(mask.size()) == h.rows(),
              "cross entropy: mask size mismatch");
  out.value = T(0);
  out.grad.resize(h.rows(), h.cols());
  const index_t n = h.rows(), c = h.cols();
  index_t active = 0;
  for (index_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<std::size_t>(i)]) continue;
    ++active;
  }
  if (normalize_count > 0) active = normalize_count;
  if (active == 0) {
    out.grad.set_zero();
    return;
  }
  const T inv_n = T(1) / static_cast<T>(active);
  const T may_flush = std::log(std::numeric_limits<T>::min() / inv_n) + T(1);
  auto row_loss = [&](index_t i) -> double {
    T* gi = out.grad.data() + i * c;
    if (!mask.empty() && !mask[static_cast<std::size_t>(i)]) {
      std::fill(gi, gi + c, T(0));
      return 0.0;
    }
    const index_t y = labels[static_cast<std::size_t>(i)];
    AGNN_ASSERT(y >= 0 && y < c, "cross entropy: label out of range");
    return detail::cross_entropy_row(h.data() + i * c, c, y, inv_n, may_flush, gi);
  };
  double loss = 0.0;
#if defined(_OPENMP)
  // reduction(+) combines the per-thread partial sums in an unspecified
  // order, so repeated runs could differ in the last bits. Summing explicit
  // per-thread partials in thread-index order (over the same static row
  // partition) makes the loss bitwise reproducible run to run. The partial
  // buffer is per calling thread and grows once.
  {
    thread_local std::vector<double> partials;
    partials.assign(static_cast<std::size_t>(omp_get_max_threads()), 0.0);
    double* parts = partials.data();
#pragma omp parallel
    {
      double mine = 0.0;
#pragma omp for schedule(static) nowait
      for (index_t i = 0; i < n; ++i) mine += row_loss(i);
      parts[static_cast<std::size_t>(omp_get_thread_num())] = mine;
    }
    for (const double p : partials) loss += p;
  }
#else
  for (index_t i = 0; i < n; ++i) loss += row_loss(i);
#endif
  out.value = static_cast<T>(loss) * inv_n;
}

template <typename T>
LossResult<T> softmax_cross_entropy(const DenseMatrix<T>& h,
                                    std::span<const index_t> labels,
                                    std::span<const std::uint8_t> mask = {},
                                    index_t normalize_count = -1) {
  LossResult<T> out;
  softmax_cross_entropy(h, labels, out, mask, normalize_count);
  return out;
}

// Mean squared error against a target matrix: L = ||H - Y||_F^2 / (2 n).
template <typename T>
LossResult<T> mse_loss(const DenseMatrix<T>& h, const DenseMatrix<T>& target) {
  AGNN_ASSERT(h.same_shape(target), "mse: shape mismatch");
  LossResult<T> out;
  out.grad = DenseMatrix<T>(h.rows(), h.cols());
  const T inv_n = T(1) / static_cast<T>(h.rows());
  double loss = 0.0;
  for (index_t i = 0; i < h.size(); ++i) {
    const T d = h.data()[i] - target.data()[i];
    loss += 0.5 * static_cast<double>(d) * static_cast<double>(d);
    out.grad.data()[i] = d * inv_n;
  }
  out.value = static_cast<T>(loss) * inv_n;
  return out;
}

// The predicted class of vertex i: the first column holding row i's maximum.
template <typename T>
index_t argmax_row(const DenseMatrix<T>& h, index_t i) {
  const T* hi = h.data() + i * h.cols();
  index_t best = 0;
  for (index_t j = 1; j < h.cols(); ++j) {
    if (hi[j] > hi[best]) best = j;
  }
  return best;
}

// Row-wise argmax — the predicted class per vertex.
template <typename T>
std::vector<index_t> argmax_rows(const DenseMatrix<T>& h) {
  std::vector<index_t> pred(static_cast<std::size_t>(h.rows()));
  for (index_t i = 0; i < h.rows(); ++i) pred[static_cast<std::size_t>(i)] = argmax_row(h, i);
  return pred;
}

// Fraction of (masked) vertices whose predicted class is their label;
// counts in place, so a training step's accuracy allocates nothing.
template <typename T>
double accuracy(const DenseMatrix<T>& h, std::span<const index_t> labels,
                std::span<const std::uint8_t> mask = {}) {
  index_t correct = 0, total = 0;
  for (index_t i = 0; i < h.rows(); ++i) {
    if (!mask.empty() && !mask[static_cast<std::size_t>(i)]) continue;
    ++total;
    if (argmax_row(h, i) == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
}

}  // namespace agnn
