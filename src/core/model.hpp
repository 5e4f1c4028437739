// GnnModel<T>: an L-layer GNN in the global formulation, plus the full-batch
// training loop (forward pass, loss, backward recursion of Eq. (6)–(7), and
// parameter update).
//
// Mirrors the paper artifact's GnnModel/GnnLayer/Loss structure: forward and
// backward are overloaded per model kind via Layer, and intermediate results
// are cached between the passes (or skipped entirely in inference mode).
//
// The workspace-threaded entry points write into caller-owned storage and
// reuse the cache/grad slots in place; the Trainer keeps them (and the
// Workspace) as members, so every training step after the first reuses the
// same buffers — zero steady-state allocations, observable via
// Trainer::workspace_stats().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/optimizer.hpp"
#include "core/workspace.hpp"
#include "obs/obs_scope.hpp"

namespace agnn {

struct GnnConfig {
  ModelKind kind = ModelKind::kGAT;
  index_t in_features = 16;
  std::vector<index_t> layer_widths = {16, 16};  // output width per layer (per head)
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kIdentity;
  double attention_slope = 0.2;  // LeakyReLU slope inside GAT attention
  int heads = 1;      // GAT attention heads of every hidden layer, concatenated
  int out_heads = 1;  // GAT attention heads of the output layer, averaged
  Activation mlp_activation = Activation::kRelu;  // GIN's in-MLP non-linearity
  double gin_epsilon = 0.0;      // GIN's (1 + eps) self-loop weight
  std::uint64_t seed = 42;
};

template <typename T>
class GnnModel {
 public:
  explicit GnnModel(const GnnConfig& config) : config_(config) {
    AGNN_ASSERT(!config.layer_widths.empty(), "model needs at least one layer");
    for (const auto& [field, count] : {std::pair{"heads", config.heads},
                                       std::pair{"out_heads", config.out_heads}}) {
      AGNN_ASSERT(count >= 1, std::string("GnnConfig::") + field + " must be >= 1, got " +
                                  std::to_string(count));
      AGNN_ASSERT(count == 1 || config.kind == ModelKind::kGAT,
                  std::string("GnnConfig::") + field + " must be 1 for " +
                      to_string(config.kind) + ": only GAT has attention heads");
    }
    Rng rng(config.seed);
    index_t k_in = config.in_features;
    for (std::size_t l = 0; l < config.layer_widths.size(); ++l) {
      const bool last = (l + 1 == config.layer_widths.size());
      const Activation act = last ? config.output_activation : config.hidden_activation;
      layers_.emplace_back(config.kind, k_in, config.layer_widths[l], act, rng,
                           static_cast<T>(config.attention_slope),
                           config.mlp_activation,
                           static_cast<T>(config.gin_epsilon),
                           last ? config.out_heads : config.heads, last);
      k_in = layers_.back().out_features();
    }
  }

  const GnnConfig& config() const { return config_; }
  std::size_t num_layers() const { return layers_.size(); }
  Layer<T>& layer(std::size_t l) { return layers_[l]; }
  const Layer<T>& layer(std::size_t l) const { return layers_[l]; }

  index_t max_layer_width() const {
    index_t w = 0;
    for (const auto& layer : layers_) w = std::max(w, layer.out_features());
    return w;
  }

  // Inference: forward pass without storing intermediates. Feature buffers
  // ping-pong between two pooled matrices; all scratch comes from `ws`.
  void infer(const CsrMatrix<T>& adj, const DenseMatrix<T>& x, Workspace<T>& ws,
             DenseMatrix<T>& h_out) const {
    AGNN_TRACE_SCOPE("model.infer", kPhase);
    if (layers_.size() == 1) {
      layers_[0].forward(adj, x, nullptr, ws, h_out);
      return;
    }
    auto buf0 = ws.acquire_dense(x.rows(), max_layer_width());
    auto buf1 = ws.acquire_dense(x.rows(), max_layer_width());
    const DenseMatrix<T>* src = &x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const bool last = (l + 1 == layers_.size());
      DenseMatrix<T>* dst = last ? &h_out : (l % 2 == 0 ? &*buf0 : &*buf1);
      layers_[l].forward(adj, *src, nullptr, ws, *dst);
      src = dst;
    }
  }

  DenseMatrix<T> infer(const CsrMatrix<T>& adj, const DenseMatrix<T>& x) const {
    Workspace<T> ws;
    DenseMatrix<T> h;
    infer(adj, x, ws, h);
    return h;
  }

  // Training-mode forward: fills one cache per layer and writes H^L into
  // `h_out`. Each layer's output is written directly into the next layer's
  // h_in cache slot, so there is no separate feature ping-pong and no copy.
  // `dropout_rate` > 0 applies inverted feature dropout to every layer's
  // input (deterministic for a given `dropout_seed`, so gradient checks and
  // replays see identical masks).
  void forward(const CsrMatrix<T>& adj, const DenseMatrix<T>& x,
               std::vector<LayerCache<T>>& caches, Workspace<T>& ws,
               DenseMatrix<T>& h_out, double dropout_rate = 0.0,
               std::uint64_t dropout_seed = 0) const {
    AGNN_TRACE_SCOPE("model.forward", kPhase);
    AGNN_ASSERT(dropout_rate >= 0.0 && dropout_rate < 1.0,
                "dropout rate must be in [0, 1)");
    caches.resize(layers_.size());  // preserves slot storage across steps
    Rng rng(0x5eedULL ^ dropout_seed);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      DenseMatrix<T>& h = caches[l].h_in;
      if (l == 0) h = x;
      if (dropout_rate > 0.0) {
        const T keep_inv = static_cast<T>(1.0 / (1.0 - dropout_rate));
        DenseMatrix<T>& mask = caches[l].dropout_mask;
        mask.resize(h.rows(), h.cols());
        for (index_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = rng.next_double() < dropout_rate ? T(0) : keep_inv;
        }
        hadamard(h, mask, h);  // in place
      } else {
        caches[l].dropout_mask.resize(0, 0);
      }
      const bool last = (l + 1 == layers_.size());
      DenseMatrix<T>& dst = last ? h_out : caches[l + 1].h_in;
      layers_[l].forward(adj, h, &caches[l], ws, dst);
    }
  }

  DenseMatrix<T> forward(const CsrMatrix<T>& adj, const DenseMatrix<T>& x,
                         std::vector<LayerCache<T>>& caches,
                         double dropout_rate = 0.0,
                         std::uint64_t dropout_seed = 0) const {
    Workspace<T> ws;
    DenseMatrix<T> h;
    forward(adj, x, caches, ws, h, dropout_rate, dropout_seed);
    return h;
  }

  // Backward recursion. `d_h_out` is nabla_{H^L} L from the loss. Fills
  // per-layer gradients (same order as layers) in place. dL/dX (the
  // input-feature gradient) is available as grads[0].d_h_in.
  void backward(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                const std::vector<LayerCache<T>>& caches,
                const DenseMatrix<T>& d_h_out, Workspace<T>& ws,
                std::vector<LayerGrads<T>>& grads) const {
    AGNN_TRACE_SCOPE("model.backward", kPhase);
    AGNN_ASSERT(caches.size() == layers_.size(), "backward: cache count mismatch");
    grads.resize(layers_.size());
    // One pooled G buffer serves the whole recursion: layer widths vary, but
    // activation_backward resizes within the max-width capacity.
    auto g = ws.acquire_dense(d_h_out.rows(), max_layer_width());
    // Bootstrap: G^L = nabla_{H^L} L ⊙ sigma'(Z^L)      (Eq. 4)
    activation_backward(layers_.back().activation(), caches.back().z, d_h_out, *g);
    for (std::size_t l = layers_.size(); l-- > 0;) {
      layers_[l].backward(adj, adj_t, caches[l], *g, ws, grads[l]);
      // If dropout was applied to this layer's input, the gradient w.r.t.
      // the pre-dropout features picks up the same mask.
      if (!caches[l].dropout_mask.empty()) {
        hadamard(grads[l].d_h_in, caches[l].dropout_mask, grads[l].d_h_in);
      }
      if (l > 0) {
        // G^{l-1} = sigma'(Z^{l-1}) ⊙ Gamma^l            (Eq. 6)
        activation_backward(layers_[l - 1].activation(), caches[l - 1].z,
                            grads[l].d_h_in, *g);
      }
    }
  }

  std::vector<LayerGrads<T>> backward(const CsrMatrix<T>& adj,
                                      const CsrMatrix<T>& adj_t,
                                      const std::vector<LayerCache<T>>& caches,
                                      const DenseMatrix<T>& d_h_out) const {
    Workspace<T> ws;
    std::vector<LayerGrads<T>> grads;
    backward(adj, adj_t, caches, d_h_out, ws, grads);
    return grads;
  }

  // Apply parameter updates via the optimizer. Each layer's W and a get
  // stable optimizer slots so per-parameter state (momentum, Adam moments)
  // is tracked correctly across steps.
  void apply_gradients(const std::vector<LayerGrads<T>>& grads, Optimizer<T>& opt) {
    AGNN_ASSERT(grads.size() == layers_.size(), "apply_gradients: size mismatch");
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      opt.step(3 * l, layers_[l].weights().flat(), grads[l].d_w.flat());
      if (!layers_[l].attention_params().empty()) {
        opt.step(3 * l + 1, std::span<T>(layers_[l].attention_params()),
                 std::span<const T>(grads[l].d_a));
      }
      if (!layers_[l].weights2().empty()) {
        opt.step(3 * l + 2, layers_[l].weights2().flat(), grads[l].d_w2.flat());
      }
    }
  }

 private:
  GnnConfig config_;
  std::vector<Layer<T>> layers_;
};

// Full-batch trainer for node classification, the paper's training workload.
// Supports feature dropout (off by default) and per-parameter weight decay
// via the optimizer. Caches, gradients, the loss buffer, and the Workspace
// are persistent members: after the first step every buffer is warm and a
// step performs zero heap allocations (workspace_stats() proves it).
template <typename T>
class Trainer {
 public:
  Trainer(GnnModel<T>& model, std::unique_ptr<Optimizer<T>> opt,
          double dropout_rate = 0.0)
      : model_(model), opt_(std::move(opt)), dropout_rate_(dropout_rate) {}

  struct StepResult {
    T loss = T(0);
    double train_accuracy = 0.0;
  };

  // One full-batch training step: forward, loss, backward, update.
  StepResult step(const CsrMatrix<T>& adj, const CsrMatrix<T>& adj_t,
                  const DenseMatrix<T>& x, std::span<const index_t> labels,
                  std::span<const std::uint8_t> mask = {}) {
    AGNN_EPOCH_SCOPE("trainer.step");
    model_.forward(adj, x, caches_, ws_, h_, dropout_rate_, step_count_++);
    softmax_cross_entropy(h_, labels, loss_, mask);
    model_.backward(adj, adj_t, caches_, loss_.grad, ws_, grads_);
    model_.apply_gradients(grads_, *opt_);
    return {loss_.value, accuracy(h_, labels, mask)};
  }

  // Train for `epochs` steps; returns the loss trajectory.
  std::vector<T> train(const CsrMatrix<T>& adj, const DenseMatrix<T>& x,
                       std::span<const index_t> labels, int epochs,
                       std::span<const std::uint8_t> mask = {}) {
    const CsrMatrix<T> adj_t = adj.transposed();
    std::vector<T> losses;
    losses.reserve(static_cast<std::size_t>(epochs));
    for (int e = 0; e < epochs; ++e) {
      AGNN_EPOCH_SCOPE("trainer.epoch");
      losses.push_back(step(adj, adj_t, x, labels, mask).loss);
    }
    return losses;
  }

  Workspace<T>& workspace() { return ws_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats(); }

  // Exposed for checkpointing (serialization.hpp persists the model's
  // parameters and the optimizer's flattened state together).
  GnnModel<T>& model() { return model_; }
  Optimizer<T>& optimizer() { return *opt_; }

 private:
  GnnModel<T>& model_;
  std::unique_ptr<Optimizer<T>> opt_;
  double dropout_rate_ = 0.0;
  std::uint64_t step_count_ = 0;
  Workspace<T> ws_;
  std::vector<LayerCache<T>> caches_;
  std::vector<LayerGrads<T>> grads_;
  DenseMatrix<T> h_;
  LossResult<T> loss_;
};

}  // namespace agnn
