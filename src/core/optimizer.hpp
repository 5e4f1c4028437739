// First-order optimizers updating flat parameter buffers.
//
// The paper trains with the generic rule W := W - alpha * Y (Section 5.1,
// Step 6) — plain SGD. Momentum-SGD and Adam are provided as the standard
// extensions a downstream user expects; all three operate on spans so that
// the same optimizer instance updates W matrices and a vectors alike.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "obs/obs_scope.hpp"
#include "tensor/common.hpp"

namespace agnn {

template <typename T>
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  // Update parameter buffer `slot` (a stable id per parameter tensor).
  virtual void step(std::size_t slot, std::span<T> param, std::span<const T> grad) = 0;
  virtual void reset() = 0;

  // Flatten/restore the internal state (momentum, Adam moments) so a
  // recovery checkpoint reproduces the optimizer bit-for-bit. The blob
  // layout is private to each optimizer; a stateless optimizer keeps these
  // defaults (empty blob, restore == reset).
  virtual void snapshot_state(std::vector<double>& out) const { out.clear(); }
  virtual void restore_state(std::span<const double> in) {
    AGNN_ASSERT(in.empty(), "optimizer: unexpected state blob");
    reset();
  }
};

template <typename T>
class SgdOptimizer final : public Optimizer<T> {
 public:
  explicit SgdOptimizer(T lr, T momentum = T(0), T weight_decay = T(0))
      : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

  void step(std::size_t slot, std::span<T> param, std::span<const T> grad) override {
    // param and grad in, param out; with momentum the velocity in and out.
    AGNN_KERNEL_SCOPE("sgd_step", obs::elementwise_traffic_bytes(
                                      param.size(), momentum_ == T(0) ? 3 : 5,
                                      sizeof(T)));
    AGNN_ASSERT(param.size() == grad.size(), "sgd: param/grad size mismatch");
    if (momentum_ == T(0)) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        param[i] -= lr_ * (grad[i] + weight_decay_ * param[i]);
      }
      return;
    }
    auto& v = velocity(slot, param.size());
    for (std::size_t i = 0; i < param.size(); ++i) {
      v[i] = momentum_ * v[i] + grad[i] + weight_decay_ * param[i];
      param[i] -= lr_ * v[i];
    }
  }

  void reset() override { velocities_.clear(); }

  // Blob layout: [#slots][per slot: size, values...].
  void snapshot_state(std::vector<double>& out) const override {
    out.clear();
    out.push_back(static_cast<double>(velocities_.size()));
    for (const auto& v : velocities_) {
      out.push_back(static_cast<double>(v.size()));
      for (const T& x : v) out.push_back(static_cast<double>(x));
    }
  }

  void restore_state(std::span<const double> in) override {
    if (in.empty()) {  // checkpoint taken before any stateful step
      reset();
      return;
    }
    std::size_t pos = 0;
    const auto next = [&] {
      AGNN_ASSERT(pos < in.size(), "sgd: truncated state blob");
      return in[pos++];
    };
    velocities_.assign(static_cast<std::size_t>(next()), {});
    for (auto& v : velocities_) {
      v.resize(static_cast<std::size_t>(next()));
      for (T& x : v) x = static_cast<T>(next());
    }
    AGNN_ASSERT(pos == in.size(), "sgd: oversized state blob");
  }

 private:
  std::vector<T>& velocity(std::size_t slot, std::size_t size) {
    if (slot >= velocities_.size()) velocities_.resize(slot + 1);
    if (velocities_[slot].size() != size) velocities_[slot].assign(size, T(0));
    return velocities_[slot];
  }

  T lr_, momentum_, weight_decay_;
  std::vector<std::vector<T>> velocities_;
};

template <typename T>
class AdamOptimizer final : public Optimizer<T> {
 public:
  explicit AdamOptimizer(T lr, T beta1 = T(0.9), T beta2 = T(0.999),
                         T eps = T(1e-8), T weight_decay = T(0))
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {}

  void step(std::size_t slot, std::span<T> param, std::span<const T> grad) override {
    // param, grad and both moments in; param and both moments out.
    AGNN_KERNEL_SCOPE("adam_step",
                      obs::elementwise_traffic_bytes(param.size(), 7, sizeof(T)));
    AGNN_ASSERT(param.size() == grad.size(), "adam: param/grad size mismatch");
    auto& st = state(slot, param.size());
    st.t += 1;
    const T bc1 = T(1) - static_cast<T>(std::pow(static_cast<double>(beta1_), st.t));
    const T bc2 = T(1) - static_cast<T>(std::pow(static_cast<double>(beta2_), st.t));
    for (std::size_t i = 0; i < param.size(); ++i) {
      const T g = grad[i] + weight_decay_ * param[i];
      st.m[i] = beta1_ * st.m[i] + (T(1) - beta1_) * g;
      st.v[i] = beta2_ * st.v[i] + (T(1) - beta2_) * g * g;
      const T m_hat = st.m[i] / bc1;
      const T v_hat = st.v[i] / bc2;
      param[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }

  void reset() override { states_.clear(); }

  // Blob layout: [#slots][per slot: t, size, m..., v...].
  void snapshot_state(std::vector<double>& out) const override {
    out.clear();
    out.push_back(static_cast<double>(states_.size()));
    for (const State& st : states_) {
      out.push_back(static_cast<double>(st.t));
      out.push_back(static_cast<double>(st.m.size()));
      for (const T& x : st.m) out.push_back(static_cast<double>(x));
      for (const T& x : st.v) out.push_back(static_cast<double>(x));
    }
  }

  void restore_state(std::span<const double> in) override {
    if (in.empty()) {
      reset();
      return;
    }
    std::size_t pos = 0;
    const auto next = [&] {
      AGNN_ASSERT(pos < in.size(), "adam: truncated state blob");
      return in[pos++];
    };
    states_.assign(static_cast<std::size_t>(next()), {});
    for (State& st : states_) {
      st.t = static_cast<int>(next());
      const auto size = static_cast<std::size_t>(next());
      st.m.resize(size);
      st.v.resize(size);
      for (T& x : st.m) x = static_cast<T>(next());
      for (T& x : st.v) x = static_cast<T>(next());
    }
    AGNN_ASSERT(pos == in.size(), "adam: oversized state blob");
  }

 private:
  struct State {
    std::vector<T> m, v;
    int t = 0;
  };
  State& state(std::size_t slot, std::size_t size) {
    if (slot >= states_.size()) states_.resize(slot + 1);
    auto& st = states_[slot];
    if (st.m.size() != size) {
      st.m.assign(size, T(0));
      st.v.assign(size, T(0));
      st.t = 0;
    }
    return st;
  }

  T lr_, beta1_, beta2_, eps_, weight_decay_;
  std::vector<State> states_;
};

}  // namespace agnn
