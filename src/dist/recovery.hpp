// Checkpoint-recovery driver for distributed training.
//
// `train_with_recovery` wraps any engine's train_step loop (all four
// distributed engines share the (x, labels, opt, mask) signature) with the
// failure semantics of comm/fault_injection.hpp:
//
//   - every `checkpoint_every` completed epochs, each rank snapshots its
//     model replica and optimizer state in memory (replicas are bitwise
//     identical across ranks, so no collective is needed), and rank 0
//     optionally persists a checkpoint file via serialization.hpp;
//   - a CommError rolls every rank back to the last checkpoint: recover()
//     rendezvous, bounded exponential backoff, bitwise parameter restore,
//     and the epoch counter rewinds to the checkpointed value;
//   - restores are bounded by `max_restores`; past that the CommError
//     propagates (and SpmdRuntime::run rethrows it to the caller).
//
// Determinism contract: the restore is bitwise (model params + optimizer
// state), the engines' collectives reduce in fixed rank order, and injected
// faults fire at logical (rank, superstep) points — so a recovered run
// reaches bit-for-bit the same parameters as a fault-free run of the same
// seed, which the differential `faults` suite asserts.
//
// Why epoch boundaries agree across ranks: every checked barrier is uniform
// per generation (all members pass or none do — see GroupContext::
// barrier_wait), and the loop ends each epoch with a world barrier. A
// failure anywhere in epoch e therefore unwinds *every* rank inside epoch e,
// before any rank could count e as complete or checkpoint past it.
#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault_injection.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "obs/trace.hpp"

namespace agnn::dist {

struct RecoveryOptions {
  int checkpoint_every = 5;  // epochs between checkpoints
  int max_restores = 8;      // give up (rethrow) past this many recoveries
  std::chrono::milliseconds backoff{5};       // doubled per consecutive restore
  std::chrono::milliseconds max_backoff{200};  // backoff cap
  std::string checkpoint_path;  // non-empty: rank 0 persists checkpoints here
};

template <typename T>
struct RecoveryReport {
  std::vector<T> losses;  // per-epoch loss of the successful pass
  int restores = 0;
  int checkpoints = 0;
};

// Flatten/restore the full parameter set of a model replica.
template <typename T>
void collect_params(const GnnModel<T>& m, std::vector<T>& out) {
  out.clear();
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    const Layer<T>& layer = m.layer(l);
    out.insert(out.end(), layer.weights().flat().begin(),
               layer.weights().flat().end());
    out.insert(out.end(), layer.attention_params().begin(),
               layer.attention_params().end());
    out.insert(out.end(), layer.weights2().flat().begin(),
               layer.weights2().flat().end());
  }
}

template <typename T>
void restore_params(GnnModel<T>& m, const std::vector<T>& blob) {
  std::size_t pos = 0;
  const auto take = [&](std::span<T> dst) {
    AGNN_ASSERT(pos + dst.size() <= blob.size(), "restore: truncated blob");
    std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(pos), dst.size(),
                dst.begin());
    pos += dst.size();
  };
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    Layer<T>& layer = m.layer(l);
    take(layer.weights().flat());
    take(std::span<T>(layer.attention_params()));
    take(layer.weights2().flat());
  }
  AGNN_ASSERT(pos == blob.size(), "restore: oversized blob");
}

template <typename T, typename Engine>
RecoveryReport<T> train_with_recovery(comm::Communicator& world, Engine& engine,
                                      GnnModel<T>& model, Optimizer<T>& opt,
                                      const DenseMatrix<T>& x,
                                      std::span<const index_t> labels,
                                      int epochs,
                                      std::span<const std::uint8_t> mask = {},
                                      const RecoveryOptions& opts = {}) {
  AGNN_ASSERT(epochs >= 0 && opts.checkpoint_every >= 1 &&
                  opts.max_restores >= 0,
              "train_with_recovery: bad options");
  RecoveryReport<T> report;
  report.losses.assign(static_cast<std::size_t>(epochs), T(0));

  std::vector<T> ckpt_params;
  std::vector<double> ckpt_opt;
  int ckpt_epoch = 0;
  const auto take_checkpoint = [&](int completed) {
    collect_params(model, ckpt_params);
    opt.snapshot_state(ckpt_opt);
    ckpt_epoch = completed;
    ++report.checkpoints;
    if (!opts.checkpoint_path.empty() && world.global_rank() == 0) {
      save_checkpoint(opts.checkpoint_path, model,
                      static_cast<std::int64_t>(completed),
                      std::span<const double>(ckpt_opt));
    }
  };
  take_checkpoint(0);  // epoch-0 snapshot: the loop can always roll back

  int epoch = 0;
  int consecutive_restores = 0;
  while (epoch < epochs) {
    try {
      const auto res = engine.train_step(x, labels, opt, mask);
      // Epoch-boundary agreement: a rank counts the epoch as complete only
      // if this barrier's generation advances, which it does for all ranks
      // or none. Without it, a fault in the tail of train_step could leave
      // some ranks one epoch ahead and their checkpoints divergent.
      world.barrier();
      report.losses[static_cast<std::size_t>(epoch)] = res.loss;
      ++epoch;
      consecutive_restores = 0;
      if (epoch % opts.checkpoint_every == 0 && epoch < epochs) {
        take_checkpoint(epoch);
      }
    } catch (const comm::CommError&) {
      ++report.restores;
      if (report.restores > opts.max_restores) throw;
      world.recover();  // all-ranks rendezvous; throws if unrecoverable
      auto backoff = opts.backoff * (1 << std::min(consecutive_restores, 10));
      if (backoff > opts.max_backoff) backoff = opts.max_backoff;
      ++consecutive_restores;
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      restore_params(model, ckpt_params);
      opt.restore_state(ckpt_opt);
      epoch = ckpt_epoch;
      obs::fault_mark("fault.restored", static_cast<std::uint64_t>(ckpt_epoch),
                      0);
    }
  }
  return report;
}

}  // namespace agnn::dist
