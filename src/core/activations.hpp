// Element-wise non-linearities sigma and their derivatives sigma'.
//
// The global formulation deliberately decouples sigma from Phi (Section 4):
// H^{l+1} = sigma(Z^l). The backward pass needs sigma'(Z) for the
// G^{l-1} = sigma'(Z^{l-1}) ⊙ Gamma^l recursion (Eq. 6).
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "obs/obs_scope.hpp"
#include "tensor/dense_matrix.hpp"

namespace agnn {

enum class Activation { kIdentity, kRelu, kLeakyRelu, kTanh, kSigmoid };

inline const char* to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "?";
}

template <typename T>
T apply_activation(Activation a, T z, T leaky_slope = T(0.01)) {
  switch (a) {
    case Activation::kIdentity: return z;
    case Activation::kRelu: return z > T(0) ? z : T(0);
    case Activation::kLeakyRelu: return z > T(0) ? z : leaky_slope * z;
    case Activation::kTanh: return std::tanh(z);
    case Activation::kSigmoid: return T(1) / (T(1) + std::exp(-z));
  }
  return z;
}

template <typename T>
T activation_derivative(Activation a, T z, T leaky_slope = T(0.01)) {
  switch (a) {
    case Activation::kIdentity: return T(1);
    case Activation::kRelu: return z > T(0) ? T(1) : T(0);
    case Activation::kLeakyRelu: return z > T(0) ? T(1) : leaky_slope;
    case Activation::kTanh: {
      const T t = std::tanh(z);
      return T(1) - t * t;
    }
    case Activation::kSigmoid: {
      const T s = T(1) / (T(1) + std::exp(-z));
      return s * (T(1) - s);
    }
  }
  return T(1);
}

namespace detail {

// Calls f with the activation kind as a compile-time constant, so each kind
// gets a loop of its own and the per-element switch in apply_activation /
// activation_derivative folds away.
template <typename F>
void with_activation_kind(Activation a, F&& f) {
  using K = Activation;
  switch (a) {
    case K::kIdentity: return f(std::integral_constant<K, K::kIdentity>{});
    case K::kRelu: return f(std::integral_constant<K, K::kRelu>{});
    case K::kLeakyRelu: return f(std::integral_constant<K, K::kLeakyRelu>{});
    case K::kTanh: return f(std::integral_constant<K, K::kTanh>{});
    case K::kSigmoid: return f(std::integral_constant<K, K::kSigmoid>{});
  }
}

}  // namespace detail

// H = sigma(Z), element-wise. The out-parameter form resizes `h` in place
// (no allocation within capacity); `h` may alias `z`.
template <typename T>
void activate(Activation a, const DenseMatrix<T>& z, DenseMatrix<T>& h,
              T leaky_slope = T(0.01)) {
  AGNN_KERNEL_SCOPE("activate",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(z.size()), 2, sizeof(T)));
  h.resize(z.rows(), z.cols());
  const T* zp = z.data();
  T* hp = h.data();
  const index_t n = z.size();
  detail::with_activation_kind(a, [&](auto kind) {
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < n; ++i) hp[i] = apply_activation(kind(), zp[i], leaky_slope);
  });
}

template <typename T>
DenseMatrix<T> activate(Activation a, const DenseMatrix<T>& z, T leaky_slope = T(0.01)) {
  DenseMatrix<T> h;
  activate(a, z, h, leaky_slope);
  return h;
}

// G = Gamma ⊙ sigma'(Z): the per-layer gradient recursion of Eq. (6).
// `g` may alias `z` or `gamma` (pure element-wise read-before-write).
//
// sigma'(z) gets a statement of its own: GCC folds gamma * (c ? 1 : 0) in
// one expression into c ? gamma : gamma * 0, which it cannot if-convert
// under the default -ftrapping-math, and the ReLU loop would stay scalar.
// As written it is a select, then the multiply, and vectorizes; the
// multiply stays, so a negative gamma times 0 is -0 and a non-finite gamma
// gives NaN, as before.
template <typename T>
void activation_backward(Activation a, const DenseMatrix<T>& z,
                         const DenseMatrix<T>& gamma, DenseMatrix<T>& g,
                         T leaky_slope = T(0.01)) {
  AGNN_KERNEL_SCOPE("activation_backward",
                    obs::elementwise_traffic_bytes(
                        static_cast<std::uint64_t>(z.size()), 3, sizeof(T)));
  AGNN_ASSERT(z.same_shape(gamma), "activation_backward: shape mismatch");
  g.resize(z.rows(), z.cols());
  const T* zp = z.data();
  const T* gp = gamma.data();
  T* out = g.data();
  const index_t n = z.size();
  detail::with_activation_kind(a, [&](auto kind) {
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < n; ++i) {
      const T d = activation_derivative(kind(), zp[i], leaky_slope);
      out[i] = gp[i] * d;
    }
  });
}

template <typename T>
DenseMatrix<T> activation_backward(Activation a, const DenseMatrix<T>& z,
                                   const DenseMatrix<T>& gamma,
                                   T leaky_slope = T(0.01)) {
  DenseMatrix<T> g;
  activation_backward(a, z, gamma, g, leaky_slope);
  return g;
}

}  // namespace agnn
