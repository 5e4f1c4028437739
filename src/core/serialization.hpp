// Model checkpointing: binary save/load of a GnnModel's configuration and
// parameters (W, a, W2 per layer). The format is versioned and validated on
// load; loading reconstructs an identical model (bit-exact parameters).
//
// Model format (little-endian):
//   8 bytes  magic "AGNNMDL2"
//   i64      model kind, in_features, #layers
//   i64      hidden act, output act, mlp act
//   f64      attention_slope, gin_epsilon
//   i64      heads, out_heads                  (absent in "AGNNMDL1": 1, 1)
//   per layer: i64 width (per head); i64 w_size, w data; i64 a_size, a data;
//              i64 w2_size, w2 data                         (all doubles)
//
// Training checkpoints (the recovery loop's persistence format) wrap a
// model blob with progress metadata and flattened optimizer state:
//   8 bytes  magic "AGNNCKP1"
//   i64      epoch (completed epochs at checkpoint time)
//   i64      optimizer state size; f64 state...   (Optimizer::snapshot_state)
//   <model blob as above>
// Checkpoints are written to `path + ".tmp"` and renamed into place, so a
// crash mid-write never corrupts the previous checkpoint.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace agnn {

namespace detail {

constexpr char kModelMagic[8] = {'A', 'G', 'N', 'N', 'M', 'D', 'L', '2'};
constexpr char kModelMagicV1[8] = {'A', 'G', 'N', 'N', 'M', 'D', 'L', '1'};
constexpr char kCheckpointMagic[8] = {'A', 'G', 'N', 'N', 'C', 'K', 'P', '1'};

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  AGNN_ASSERT(in.good(), "model file truncated");
  return v;
}

template <typename T>
void write_buffer(std::ostream& out, std::span<const T> data) {
  write_pod<std::int64_t>(out, static_cast<std::int64_t>(data.size()));
  for (const T& v : data) write_pod<double>(out, static_cast<double>(v));
}

// The truncated-file error unless rows x cols doubles are left in the
// stream; checked before allocating from counts the file supplied (by
// division, so a hostile count cannot overflow).
inline void check_doubles_left(std::istream& in, std::uint64_t rows,
                               std::uint64_t cols) {
  const std::uint64_t left = bytes_left(in) / sizeof(double);
  AGNN_ASSERT(cols == 0 || rows <= left / cols, "model file truncated");
}

template <typename T>
void read_buffer(std::istream& in, std::span<T> data) {
  const auto size = read_pod<std::int64_t>(in);
  AGNN_ASSERT(size == static_cast<std::int64_t>(data.size()),
              "model file: parameter size mismatch");
  for (T& v : data) v = static_cast<T>(read_pod<double>(in));
}

}  // namespace detail

template <typename T>
void save_model(std::ostream& out, const GnnModel<T>& model) {
  out.write(detail::kModelMagic, sizeof(detail::kModelMagic));
  const GnnConfig& cfg = model.config();
  detail::write_pod<std::int64_t>(out, static_cast<std::int64_t>(cfg.kind));
  detail::write_pod<std::int64_t>(out, cfg.in_features);
  detail::write_pod<std::int64_t>(out, static_cast<std::int64_t>(model.num_layers()));
  detail::write_pod<std::int64_t>(out,
                                  static_cast<std::int64_t>(cfg.hidden_activation));
  detail::write_pod<std::int64_t>(out,
                                  static_cast<std::int64_t>(cfg.output_activation));
  detail::write_pod<std::int64_t>(out, static_cast<std::int64_t>(cfg.mlp_activation));
  detail::write_pod<double>(out, cfg.attention_slope);
  detail::write_pod<double>(out, cfg.gin_epsilon);
  detail::write_pod<std::int64_t>(out, cfg.heads);
  detail::write_pod<std::int64_t>(out, cfg.out_heads);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    const Layer<T>& layer = model.layer(l);
    detail::write_pod<std::int64_t>(out, layer.head_features());
    detail::write_buffer<T>(out, layer.weights().flat());
    detail::write_buffer<T>(out, layer.attention_params());
    detail::write_buffer<T>(out, layer.weights2().flat());
  }
}

template <typename T>
void save_model(const std::string& path, const GnnModel<T>& model) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AGNN_ASSERT(out.good(), "cannot open model file for writing: " + path);
  save_model(out, model);
  AGNN_ASSERT(out.good(), "model write failed: " + path);
}

template <typename T>
GnnModel<T> load_model(std::istream& in, const std::string& what) {
  char magic[8];
  in.read(magic, sizeof(magic));
  const bool v1 = in.good() && std::memcmp(magic, detail::kModelMagicV1, 8) == 0;
  AGNN_ASSERT(in.good() && (v1 || std::memcmp(magic, detail::kModelMagic, 8) == 0),
              "bad magic in model file: " + what);
  GnnConfig cfg;
  cfg.kind = static_cast<ModelKind>(detail::read_pod<std::int64_t>(in));
  cfg.in_features = detail::read_pod<std::int64_t>(in);
  AGNN_ASSERT(cfg.in_features > 0, "model file: bad feature count");
  const auto layers = detail::read_pod<std::int64_t>(in);
  AGNN_ASSERT(layers > 0 && layers < 1024, "model file: bad layer count");
  cfg.hidden_activation =
      static_cast<Activation>(detail::read_pod<std::int64_t>(in));
  cfg.output_activation =
      static_cast<Activation>(detail::read_pod<std::int64_t>(in));
  cfg.mlp_activation = static_cast<Activation>(detail::read_pod<std::int64_t>(in));
  cfg.attention_slope = detail::read_pod<double>(in);
  cfg.gin_epsilon = detail::read_pod<double>(in);
  std::int64_t heads = 1, out_heads = 1;
  if (!v1) {
    heads = detail::read_pod<std::int64_t>(in);
    out_heads = detail::read_pod<std::int64_t>(in);
  }
  for (const std::int64_t count : {heads, out_heads}) {
    AGNN_ASSERT(count >= 1 && (count == 1 || cfg.kind == ModelKind::kGAT),
                "model file: bad head count");
  }

  // First pass cannot construct the model until widths are known; read the
  // per-layer blocks into a staging structure.
  struct LayerBlob {
    index_t width;
    std::vector<T> w, a, w2;
  };
  std::vector<LayerBlob> blobs;
  cfg.layer_widths.clear();
  index_t k_in = cfg.in_features;
  for (std::int64_t l = 0; l < layers; ++l) {
    LayerBlob blob;
    blob.width = detail::read_pod<std::int64_t>(in);
    AGNN_ASSERT(blob.width > 0, "model file: bad layer width");
    const bool last = l + 1 == layers;
    const std::int64_t layer_heads = last ? out_heads : heads;
    // W is k_in x (heads width) and GAT's a holds 2 heads width values;
    // the bytes left bound every count the file supplies before its use.
    const auto width = static_cast<std::uint64_t>(blob.width);
    detail::check_doubles_left(in, static_cast<std::uint64_t>(layer_heads), width);
    const std::uint64_t w_cols = static_cast<std::uint64_t>(layer_heads) * width;
    detail::check_doubles_left(in, static_cast<std::uint64_t>(k_in), w_cols);
    blob.w.resize(static_cast<std::size_t>(static_cast<std::uint64_t>(k_in) * w_cols));
    detail::read_buffer<T>(in, blob.w);
    const bool gat = cfg.kind == ModelKind::kGAT;
    if (gat) detail::check_doubles_left(in, 2, w_cols);
    blob.a.resize(static_cast<std::size_t>(gat ? 2 * w_cols : 0));
    detail::read_buffer<T>(in, blob.a);
    const bool gin = cfg.kind == ModelKind::kGIN;
    if (gin) detail::check_doubles_left(in, width, width);
    const auto w2_size = gin ? blob.width * blob.width : 0;
    blob.w2.resize(static_cast<std::size_t>(w2_size));
    detail::read_buffer<T>(in, blob.w2);
    cfg.layer_widths.push_back(blob.width);
    k_in = last ? blob.width : static_cast<index_t>(w_cols);
    blobs.push_back(std::move(blob));
  }
  AGNN_ASSERT(heads <= std::numeric_limits<int>::max() &&
                  out_heads <= std::numeric_limits<int>::max(),
              "model file: bad head count");
  cfg.heads = static_cast<int>(heads);
  cfg.out_heads = static_cast<int>(out_heads);
  GnnModel<T> model(cfg);
  for (std::size_t l = 0; l < blobs.size(); ++l) {
    Layer<T>& layer = model.layer(l);
    std::copy(blobs[l].w.begin(), blobs[l].w.end(), layer.weights().data());
    layer.attention_params() = blobs[l].a;
    if (!blobs[l].w2.empty()) {
      std::copy(blobs[l].w2.begin(), blobs[l].w2.end(), layer.weights2().data());
    }
  }
  return model;
}

template <typename T>
GnnModel<T> load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AGNN_ASSERT(in.good(), "cannot open model file: " + path);
  return load_model<T>(in, path);
}

// ---- training checkpoints -------------------------------------------------

struct CheckpointMeta {
  std::int64_t epoch = 0;  // completed epochs at checkpoint time
};

// Copy parameters from `src` into `dst`; both must share the same
// architecture (kind, widths). Used by checkpoint restore, which loads into
// the live model that engines hold references to.
template <typename T>
void copy_params(const GnnModel<T>& src, GnnModel<T>& dst) {
  AGNN_ASSERT(src.num_layers() == dst.num_layers() &&
                  src.config().kind == dst.config().kind &&
                  src.config().in_features == dst.config().in_features,
              "checkpoint: model architecture mismatch");
  for (std::size_t l = 0; l < src.num_layers(); ++l) {
    const Layer<T>& a = src.layer(l);
    Layer<T>& b = dst.layer(l);
    AGNN_ASSERT(a.out_features() == b.out_features() && a.heads() == b.heads(),
                "checkpoint: layer width mismatch");
    std::copy(a.weights().flat().begin(), a.weights().flat().end(),
              b.weights().data());
    b.attention_params() = a.attention_params();
    if (!a.weights2().empty()) {
      std::copy(a.weights2().flat().begin(), a.weights2().flat().end(),
                b.weights2().data());
    }
  }
}

template <typename T>
void save_checkpoint(const std::string& path, const GnnModel<T>& model,
                     std::int64_t epoch,
                     std::span<const double> opt_state = {}) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    AGNN_ASSERT(out.good(), "cannot open checkpoint for writing: " + tmp);
    out.write(detail::kCheckpointMagic, sizeof(detail::kCheckpointMagic));
    detail::write_pod<std::int64_t>(out, epoch);
    detail::write_buffer<double>(out, opt_state);
    save_model(out, model);
    AGNN_ASSERT(out.good(), "checkpoint write failed: " + tmp);
  }
  AGNN_ASSERT(std::rename(tmp.c_str(), path.c_str()) == 0,
              "checkpoint rename failed: " + path);
}

// Loads parameters into the existing `model` (engines keep their references)
// and returns the progress metadata; `opt_state`, if non-null, receives the
// flattened optimizer state for Optimizer::restore_state.
template <typename T>
CheckpointMeta load_checkpoint(const std::string& path, GnnModel<T>& model,
                               std::vector<double>* opt_state = nullptr) {
  std::ifstream in(path, std::ios::binary);
  AGNN_ASSERT(in.good(), "cannot open checkpoint: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  AGNN_ASSERT(in.good() && std::memcmp(magic, detail::kCheckpointMagic, 8) == 0,
              "bad magic in checkpoint file: " + path);
  CheckpointMeta meta;
  meta.epoch = detail::read_pod<std::int64_t>(in);
  const auto state_size = detail::read_pod<std::int64_t>(in);
  AGNN_ASSERT(state_size >= 0, "checkpoint: bad optimizer state size");
  detail::check_doubles_left(in, static_cast<std::uint64_t>(state_size), 1);
  std::vector<double> state(static_cast<std::size_t>(state_size));
  for (double& v : state) v = detail::read_pod<double>(in);
  if (opt_state != nullptr) *opt_state = std::move(state);
  GnnModel<T> loaded = load_model<T>(in, path);
  copy_params(loaded, model);
  return meta;
}

inline bool checkpoint_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

// Trainer-level checkpointed training: resumes from `opts.path` when a
// checkpoint exists there, and persists one every `opts.every` epochs plus
// at the end. Returns the losses of the epochs run *by this call* (a full
// trajectory when starting fresh, the tail when resuming).
struct TrainerCheckpointOptions {
  std::string path;
  int every = 10;
};

template <typename T>
std::vector<T> train_with_checkpoints(Trainer<T>& trainer,
                                      const CsrMatrix<T>& adj,
                                      const DenseMatrix<T>& x,
                                      std::span<const index_t> labels,
                                      int epochs,
                                      const TrainerCheckpointOptions& opts,
                                      std::span<const std::uint8_t> mask = {}) {
  AGNN_ASSERT(!opts.path.empty() && opts.every >= 1,
              "train_with_checkpoints: bad options");
  std::int64_t start = 0;
  if (checkpoint_exists(opts.path)) {
    std::vector<double> opt_state;
    const CheckpointMeta meta =
        load_checkpoint(opts.path, trainer.model(), &opt_state);
    trainer.optimizer().restore_state(opt_state);
    start = meta.epoch;
  }
  const CsrMatrix<T> adj_t = adj.transposed();
  std::vector<T> losses;
  std::vector<double> opt_state;
  for (std::int64_t e = start; e < epochs; ++e) {
    losses.push_back(trainer.step(adj, adj_t, x, labels, mask).loss);
    if ((e + 1) % opts.every == 0 || e + 1 == epochs) {
      trainer.optimizer().snapshot_state(opt_state);
      save_checkpoint(opts.path, trainer.model(), e + 1, opt_state);
    }
  }
  return losses;
}

}  // namespace agnn
