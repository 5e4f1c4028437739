// The differential check battery.
//
// Three suites, each a pure function of a Scenario (and hence of a seed):
//
//   kernels  — every fused kernel in src/tensor/fused.hpp against its
//              O(n^2) reference_impls.hpp counterpart, plus the sparse
//              softmax/reduction kernels against serial oracles.
//   outparam — every out-parameter overload against its by-value form,
//              bitwise, with the out-buffer pre-dirtied (NaN sentinel,
//              wrong shape) to exercise the storage-reuse path.
//   engines  — the distributed engine under the 1.5D and 1D layouts and
//              under the scenario's drawn policy (there also with GAT
//              attention heads), and dist_local_engine, against the
//              sequential model / local_engine on forward, and a short
//              training run (which drives backward) comparing losses and
//              final weights.
//
// Checks never assert: they append Failure records, so the fuzz driver can
// report every divergence for a seed and keep going.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baseline/dist_local_engine.hpp"
#include "baseline/local_engine.hpp"
#include "comm/communicator.hpp"
#include "comm/fault_injection.hpp"
#include "core/model.hpp"
#include "differential/adversarial.hpp"
#include "dist/dist_engine.hpp"
#include "dist/recovery.hpp"
#include "graph/graph.hpp"
#include "serve/batch_forward.hpp"
#include "tensor/fused.hpp"
#include "tensor/reference_impls.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"

namespace agnn::diffuzz {

struct Failure {
  std::string check;
  std::string detail;
};
using Failures = std::vector<Failure>;

// Mixed absolute/relative comparison. NaN anywhere is always a divergence —
// the harness doubles as a NaN-regression hunter.
inline bool near(double a, double b, double tol) {
  if (std::isnan(a) || std::isnan(b)) return false;
  const double scale = 1.0 + std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= tol * scale;
}

inline bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline constexpr double kTol = 1e-8;

// ---- comparison helpers (append one Failure per mismatching object) --------

inline void compare_dense(const std::string& check, const DenseMatrix<double>& got,
                          const DenseMatrix<double>& want, double tol, Failures& out) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    out.push_back({check, "shape " + std::to_string(got.rows()) + "x" +
                              std::to_string(got.cols()) + " vs " +
                              std::to_string(want.rows()) + "x" +
                              std::to_string(want.cols())});
    return;
  }
  for (index_t i = 0; i < got.rows(); ++i) {
    for (index_t j = 0; j < got.cols(); ++j) {
      if (!near(got(i, j), want(i, j), tol)) {
        out.push_back({check, "(" + std::to_string(i) + "," + std::to_string(j) +
                                  "): " + std::to_string(got(i, j)) + " vs " +
                                  std::to_string(want(i, j))});
        return;
      }
    }
  }
}

inline void compare_sparse(const std::string& check, const CsrMatrix<double>& got,
                           const CsrMatrix<double>& want, double tol, Failures& out) {
  if (got.rows() != want.rows() || got.cols() != want.cols() ||
      got.nnz() != want.nnz()) {
    out.push_back({check, "structure mismatch (rows/cols/nnz)"});
    return;
  }
  for (index_t i = 0; i < got.rows(); ++i) {
    if (got.row_begin(i) != want.row_begin(i)) {
      out.push_back({check, "row_ptr mismatch at row " + std::to_string(i)});
      return;
    }
    for (index_t e = got.row_begin(i); e < got.row_end(i); ++e) {
      if (got.col_at(e) != want.col_at(e)) {
        out.push_back({check, "col_idx mismatch at edge " + std::to_string(e)});
        return;
      }
      if (!near(got.val_at(e), want.val_at(e), tol)) {
        out.push_back({check, "edge (" + std::to_string(i) + "," +
                                  std::to_string(got.col_at(e)) +
                                  "): " + std::to_string(got.val_at(e)) + " vs " +
                                  std::to_string(want.val_at(e))});
        return;
      }
    }
  }
}

inline void compare_vec(const std::string& check, const std::vector<double>& got,
                        const std::vector<double>& want, double tol, Failures& out) {
  if (got.size() != want.size()) {
    out.push_back({check, "size mismatch"});
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!near(got[i], want[i], tol)) {
      out.push_back({check, "[" + std::to_string(i) + "]: " + std::to_string(got[i]) +
                                " vs " + std::to_string(want[i])});
      return;
    }
  }
}

// Bitwise variants for the out-param suite.
inline void compare_dense_bits(const std::string& check, const DenseMatrix<double>& got,
                               const DenseMatrix<double>& want, Failures& out) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    out.push_back({check, "shape mismatch"});
    return;
  }
  for (index_t i = 0; i < got.size(); ++i) {
    if (!bits_equal(got.data()[i], want.data()[i])) {
      out.push_back({check, "bit mismatch at flat index " + std::to_string(i)});
      return;
    }
  }
}

inline void compare_sparse_bits(const std::string& check, const CsrMatrix<double>& got,
                                const CsrMatrix<double>& want, Failures& out) {
  if (got.rows() != want.rows() || got.cols() != want.cols() ||
      got.nnz() != want.nnz()) {
    out.push_back({check, "structure mismatch"});
    return;
  }
  for (index_t i = 0; i < got.rows(); ++i) {
    if (got.row_begin(i) != want.row_begin(i)) {
      out.push_back({check, "row_ptr mismatch at row " + std::to_string(i)});
      return;
    }
  }
  for (index_t e = 0; e < got.nnz(); ++e) {
    if (got.col_at(e) != want.col_at(e) ||
        !bits_equal(got.val_at(e), want.val_at(e))) {
      out.push_back({check, "bit mismatch at edge " + std::to_string(e)});
      return;
    }
  }
}

// ---- suite 1: fused kernels vs unfused references --------------------------

inline void check_kernels(const Scenario& sc, Failures& out) {
  const auto a = make_graph<double>(sc);
  const auto h = make_features<double>(sc, sc.n, sc.k, 11);
  const auto x = make_features<double>(sc, sc.n, std::max<index_t>(1, sc.k - 1), 13);
  const auto s1 = make_scores<double>(sc, sc.n, 17);
  const auto s2 = make_scores<double>(sc, sc.n, 19);
  const double slope = 0.2;

  // (1) Psi_VA = A ⊙ (H H^T).
  compare_sparse("psi_va", psi_va(a, h), reference::psi_va_unfused(a, h), kTol, out);

  // (2) Psi_AGNN = A ⊙ (H H^T ⊘ n n^T). Fused and unfused accumulate the
  // sampled dot products in the same order, so they agree even where the
  // norm products go subnormal.
  compare_sparse("psi_agnn", psi_agnn(a, h), reference::psi_agnn_unfused(a, h),
                 kTol, out);

  // (3) GAT: pre-activation scores against the rank-1 materialization, and
  // the softmax-normalized Psi against both the sparse softmax of the
  // reference scores and the dense masked-softmax oracle.
  const auto gp = psi_gat<double>(a, s1, s2, slope);
  const auto scores_ref = reference::gat_scores_unfused<double>(a, s1, s2, slope);
  {
    auto e_fused = gp.scores_pre;
    auto v = e_fused.vals_mutable();
    for (index_t e = 0; e < e_fused.nnz(); ++e) {
      const double c = v[static_cast<std::size_t>(e)];
      v[static_cast<std::size_t>(e)] = (c > 0 ? c : slope * c) * a.val_at(e);
    }
    compare_sparse("gat_scores", e_fused, scores_ref, kTol, out);
  }
  compare_sparse("gat_psi", gp.psi, row_softmax(scores_ref), kTol, out);
  {
    DenseMatrix<double> dense_scores(sc.n, sc.n, 0.0);
    for (index_t i = 0; i < sc.n; ++i) {
      for (index_t j = 0; j < sc.n; ++j) {
        const double c = s1[static_cast<std::size_t>(i)] + s2[static_cast<std::size_t>(j)];
        dense_scores(i, j) = c > 0 ? c : slope * c;
      }
    }
    const auto oracle = reference::masked_row_softmax_dense(a, dense_scores);
    bool oracle_ok = true;
    for (index_t i = 0; i < sc.n && oracle_ok; ++i) {
      for (index_t e = gp.psi.row_begin(i); e < gp.psi.row_end(i); ++e) {
        if (!near(gp.psi.val_at(e), oracle(i, gp.psi.col_at(e)), kTol)) {
          out.push_back({"gat_psi_dense_oracle",
                         "edge (" + std::to_string(i) + "," +
                             std::to_string(gp.psi.col_at(e)) + ")"});
          oracle_ok = false;
          break;
        }
      }
    }
    // Rows with edges must be stochastic; empty rows must stay empty.
    for (index_t i = 0; i < sc.n; ++i) {
      if (gp.psi.row_nnz(i) == 0) continue;
      double sum = 0;
      for (index_t e = gp.psi.row_begin(i); e < gp.psi.row_end(i); ++e) {
        sum += gp.psi.val_at(e);
      }
      if (!near(sum, 1.0, 1e-12)) {
        out.push_back({"gat_psi_stochastic", "row " + std::to_string(i) +
                                                 " sums to " + std::to_string(sum)});
        break;
      }
    }
  }

  // (4) Fused aggregates against the two-kernel pipelines.
  compare_dense("fused_va_aggregate", fused_va_aggregate(a, h, x),
                spmm(psi_va(a, h), x), kTol, out);
  compare_dense("fused_gat_aggregate",
                fused_gat_aggregate<double>(a, s1, s2, slope, x),
                spmm(gp.psi, x), kTol, out);

  // (5) Sparse reductions against serial oracles (covers the parallel
  // per-thread-partials path of sparse_col_sums).
  {
    std::vector<double> rs_ref(static_cast<std::size_t>(a.rows()), 0.0);
    std::vector<double> cs_ref(static_cast<std::size_t>(a.cols()), 0.0);
    for (index_t i = 0; i < a.rows(); ++i) {
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
        rs_ref[static_cast<std::size_t>(i)] += a.val_at(e);
        cs_ref[static_cast<std::size_t>(a.col_at(e))] += a.val_at(e);
      }
    }
    compare_vec("sparse_row_sums", sparse_row_sums(a), rs_ref, kTol, out);
    compare_vec("sparse_col_sums", sparse_col_sums(a), cs_ref, kTol, out);
  }

  // (6) Softmax backward against the closed form dX = S ⊙ (dS - rowdot 1^T).
  {
    const auto s = row_softmax(scores_ref);
    auto ds = s;
    {
      Rng rng(sc.seed * 0x8cb92ba72f3d8dd7ULL + 23);
      auto v = ds.vals_mutable();
      for (index_t e = 0; e < ds.nnz(); ++e) {
        v[static_cast<std::size_t>(e)] = rng.next_uniform(-1.0, 1.0);
      }
    }
    auto want = s;
    {
      auto v = want.vals_mutable();
      for (index_t i = 0; i < s.rows(); ++i) {
        double dot = 0;
        for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
          dot += s.val_at(e) * ds.val_at(e);
        }
        for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
          v[static_cast<std::size_t>(e)] = s.val_at(e) * (ds.val_at(e) - dot);
        }
      }
    }
    compare_sparse("row_softmax_backward", row_softmax_backward(s, ds), want,
                   kTol, out);
  }
}

// ---- suite 2: out-param overloads bitwise vs by-value forms ----------------

inline void check_outparam(const Scenario& sc, Failures& out) {
  const auto a = make_graph<double>(sc);
  const auto h = make_features<double>(sc, sc.n, sc.k, 11);
  const auto x = make_features<double>(sc, sc.n, std::max<index_t>(1, sc.k - 1), 13);
  const auto s1 = make_scores<double>(sc, sc.n, 17);
  const auto s2 = make_scores<double>(sc, sc.n, 19);
  const double slope = 0.2;
  const double qnan = std::numeric_limits<double>::quiet_NaN();

  // Dirty buffers: a wrong-shaped NaN-filled dense matrix / a stale sparse
  // copy, so any element the out-param path fails to overwrite shows up as
  // a bit mismatch against the by-value form.
  auto dirty_dense = [&] { return DenseMatrix<double>(3, 5, qnan); };
  auto dirty_sparse = [&] {
    auto d = a;
    auto v = d.vals_mutable();
    for (index_t e = 0; e < d.nnz(); ++e) v[static_cast<std::size_t>(e)] = qnan;
    return d;
  };

  {
    auto o = dirty_sparse();
    psi_va(a, h, o);
    compare_sparse_bits("outparam_psi_va", o, psi_va(a, h), out);
  }
  {
    auto o = dirty_sparse();
    psi_agnn(a, h, o);
    compare_sparse_bits("outparam_psi_agnn", o, psi_agnn(a, h), out);
  }
  {
    GatPsi<double> o;
    o.scores_pre = dirty_sparse();
    o.psi = dirty_sparse();
    psi_gat<double>(a, s1, s2, slope, o);
    const auto w = psi_gat<double>(a, s1, s2, slope);
    compare_sparse_bits("outparam_psi_gat_scores", o.scores_pre, w.scores_pre, out);
    compare_sparse_bits("outparam_psi_gat_psi", o.psi, w.psi, out);
  }
  {
    auto o = dirty_dense();
    fused_va_aggregate(a, h, x, o);
    compare_dense_bits("outparam_fused_va_aggregate", o,
                       fused_va_aggregate(a, h, x), out);
  }
  {
    auto o = dirty_dense();
    fused_gat_aggregate<double>(a, s1, s2, slope, x, o);
    compare_dense_bits("outparam_fused_gat_aggregate", o,
                       fused_gat_aggregate<double>(a, s1, s2, slope, x), out);
  }
  {
    auto o = dirty_dense();
    spmm(a, x, o);
    compare_dense_bits("outparam_spmm", o, spmm(a, x), out);
  }
  {
    const auto w = make_features<double>(sc, sc.k, sc.k, 43);
    auto o = dirty_dense();
    matmul(h, w, o);
    compare_dense_bits("outparam_matmul", o, matmul(h, w), out);
  }
  {
    auto o = dirty_sparse();
    sddmm(a, h, h, o);
    compare_sparse_bits("outparam_sddmm", o, sddmm(a, h, h), out);
  }
  {
    const auto scores = reference::gat_scores_unfused<double>(a, s1, s2, slope);
    auto o = dirty_sparse();
    row_softmax(scores, o);
    const auto s = row_softmax(scores);
    compare_sparse_bits("outparam_row_softmax", o, s, out);

    auto ds = s;
    {
      Rng rng(sc.seed * 0x8cb92ba72f3d8dd7ULL + 29);
      auto v = ds.vals_mutable();
      for (index_t e = 0; e < ds.nnz(); ++e) {
        v[static_cast<std::size_t>(e)] = rng.next_uniform(-1.0, 1.0);
      }
    }
    auto o2 = dirty_sparse();
    row_softmax_backward(s, ds, o2);
    compare_sparse_bits("outparam_row_softmax_backward", o2,
                        row_softmax_backward(s, ds), out);
  }
  {
    std::vector<double> o(7, qnan);
    sparse_row_sums(a, o);
    const auto w = sparse_row_sums(a);
    if (o.size() != w.size()) {
      out.push_back({"outparam_sparse_row_sums", "size mismatch"});
    } else {
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (!bits_equal(o[i], w[i])) {
          out.push_back({"outparam_sparse_row_sums",
                         "bit mismatch at " + std::to_string(i)});
          break;
        }
      }
    }
    std::vector<double> o2(7, qnan);
    sparse_col_sums(a, o2);
    const auto w2 = sparse_col_sums(a);
    if (o2.size() != w2.size()) {
      out.push_back({"outparam_sparse_col_sums", "size mismatch"});
    } else {
      for (std::size_t i = 0; i < o2.size(); ++i) {
        if (!bits_equal(o2[i], w2[i])) {
          out.push_back({"outparam_sparse_col_sums",
                         "bit mismatch at " + std::to_string(i)});
          break;
        }
      }
    }
  }
}

// ---- suite 3: distributed engines vs the sequential model ------------------

inline void check_engines(const Scenario& sc, Failures& out) {
  const auto kind = static_cast<ModelKind>(sc.kind);
  const auto g = make_graph<double>(sc);
  const CsrMatrix<double> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(g) : g;
  const CsrMatrix<double> adj_t = adj.transposed();
  const auto x = make_features<double>(sc, sc.n, sc.k, 31);

  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = sc.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(sc.layers), sc.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 7117;

  std::vector<index_t> labels(static_cast<std::size_t>(sc.n));
  std::vector<std::uint8_t> mask_store;
  {
    Rng rng(sc.seed * 0xd1342543de82ef95ULL + 37);
    for (auto& l : labels) {
      l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(sc.k)));
    }
    if (sc.use_mask) {
      mask_store.resize(static_cast<std::size_t>(sc.n));
      for (auto& m : mask_store) m = rng.next_bounded(10) < 7 ? 1 : 0;
      mask_store[0] = 1;  // keep at least one vertex active
    }
  }
  const std::span<const std::uint8_t> mask(mask_store);

  // Sequential forward oracle, cross-checked against the local (per-vertex)
  // formulation engine.
  GnnModel<double> seq(cfg);
  const auto ref = seq.infer(adj, x);
  compare_dense("local_engine_infer", baseline::local_infer(seq, adj, x), ref,
                kTol, out);

  // Sequential training oracle: two SGD steps.
  GnnModel<double> seq_train(cfg);
  Trainer<double> trainer(seq_train,
                          std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<double> ref_losses;
  for (int s = 0; s < 2; ++s) {
    ref_losses.push_back(trainer.step(adj, adj_t, x, labels, mask).loss);
  }

  // Failure sink shared with the rank threads: results are replicated, so
  // only rank 0 records (the mutex guards the cross-thread append).
  std::mutex mu;
  auto record = [&](const std::string& check, const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu);
    out.push_back({check, detail});
  };
  auto run_engine_checks = [&](const std::string& name, auto&& make_engine,
                               int ranks) {
    comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);  // same seed -> identical replica
      auto engine = make_engine(world, model);
      Failures local;
      compare_dense(name + "_infer", engine.infer(x), ref, kTol, local);
      SgdOptimizer<double> opt(0.05);
      for (int s = 0; s < 2; ++s) {
        const auto res = engine.train_step(x, labels, opt, mask);
        if (!near(res.loss, ref_losses[static_cast<std::size_t>(s)], kTol)) {
          local.push_back({name + "_train_loss",
                           "step " + std::to_string(s) + ": " +
                               std::to_string(res.loss) + " vs " +
                               std::to_string(ref_losses[static_cast<std::size_t>(s)])});
        }
      }
      for (std::size_t l = 0; l < model.num_layers(); ++l) {
        const auto& w_dist = model.layer(l).weights();
        const auto& w_seq = seq_train.layer(l).weights();
        for (index_t i = 0; i < w_seq.size(); ++i) {
          if (!near(w_dist.data()[i], w_seq.data()[i], kTol)) {
            local.push_back({name + "_train_weights",
                             "layer " + std::to_string(l) + " elem " +
                                 std::to_string(i)});
            break;
          }
        }
      }
      if (world.rank() == 0) {
        for (auto& f : local) record(f.check, f.detail);
      }
    });
  };

  run_engine_checks(
      "dist_1.5d_engine",
      [&](comm::Communicator& world, GnnModel<double>& model) {
        return dist::DistEngine<double>(world, adj, model,
                                        dist::DistPolicy::k1_5D);
      },
      sc.ranks_grid);
  run_engine_checks(
      "dist_local_engine",
      [&](comm::Communicator& world, GnnModel<double>& model) {
        return baseline::DistLocalEngine<double>(world, adj, model);
      },
      sc.ranks_row);
  run_engine_checks(
      "dist_1d_engine",
      [&](comm::Communicator& world, GnnModel<double>& model) {
        return dist::DistEngine<double>(world, adj, model,
                                        dist::DistPolicy::k1D);
      },
      sc.ranks_row);

  // The scenario's drawn distribution policy (1d/1.5d/2d/3d, routed as the
  // benchmarks route it) must match the sequential oracle too.
  const auto policy = static_cast<dist::DistPolicy>(sc.policy);
  run_engine_checks(
      std::string("dist_policy_") + dist::to_string(policy) + "_engine",
      [&](comm::Communicator& world, GnnModel<double>& model) {
        return dist::DistEngine<double>(world, adj, model, policy);
      },
      sc.ranks_policy);

  // GAT with attention heads, under the drawn policy, against the
  // sequential model. The attention semantics need the raw adjacency (not
  // the GCN normalization).
  {
    GnnConfig mcfg;
    mcfg.kind = ModelKind::kGAT;
    mcfg.in_features = sc.k;
    mcfg.layer_widths.assign(static_cast<std::size_t>(sc.layers) + 1, 3);
    mcfg.heads = 1 + static_cast<int>(sc.seed % 3);
    mcfg.out_heads = 1 + static_cast<int>(sc.seed % 2);
    mcfg.hidden_activation = Activation::kTanh;
    mcfg.seed = 4096;
    std::vector<index_t> mh_labels(static_cast<std::size_t>(sc.n));
    {
      Rng rng(sc.seed * 0xd1342543de82ef95ULL + 41);
      for (auto& l : mh_labels) l = static_cast<index_t>(rng.next_bounded(3));
    }

    GnnModel<double> mh_seq(mcfg);
    const auto mh_ref = mh_seq.infer(g, x);
    GnnModel<double> mh_seq_train(mcfg);
    const CsrMatrix<double> g_t = g.transposed();
    Trainer<double> mh_trainer(mh_seq_train,
                               std::make_unique<SgdOptimizer<double>>(0.05));
    std::vector<double> mh_losses;
    for (int s = 0; s < 2; ++s) {
      mh_losses.push_back(mh_trainer.step(g, g_t, x, mh_labels).loss);
    }

    comm::SpmdRuntime::run(sc.ranks_policy, [&](comm::Communicator& world) {
      GnnModel<double> model(mcfg);
      dist::DistEngine<double> engine(world, g, model, policy);
      Failures local;
      compare_dense("dist_gat_heads_infer", engine.infer(x), mh_ref, kTol, local);
      SgdOptimizer<double> opt(0.05);
      for (int s = 0; s < 2; ++s) {
        const auto res = engine.train_step(x, mh_labels, opt);
        if (!near(res.loss, mh_losses[static_cast<std::size_t>(s)], kTol)) {
          local.push_back({"dist_gat_heads_train_loss",
                           "step " + std::to_string(s) + ": " +
                               std::to_string(res.loss) + " vs " +
                               std::to_string(mh_losses[static_cast<std::size_t>(s)])});
        }
      }
      for (std::size_t l = 0; l < model.num_layers(); ++l) {
        const auto& w_dist = model.layer(l).weights();
        const auto& w_seq = mh_seq_train.layer(l).weights();
        const auto& a_dist = model.layer(l).attention_params();
        const auto& a_seq = mh_seq_train.layer(l).attention_params();
        bool same = true;
        for (index_t i = 0; i < w_seq.size(); ++i) {
          same = same && near(w_dist.data()[i], w_seq.data()[i], kTol);
        }
        for (std::size_t i = 0; i < a_seq.size(); ++i) {
          same = same && near(a_dist[i], a_seq[i], kTol);
        }
        if (!same) {
          local.push_back({"dist_gat_heads_train_params",
                           "layer " + std::to_string(l) + " under " +
                               dist::to_string(policy)});
        }
      }
      if (world.rank() == 0) {
        for (auto& f : local) record(f.check, f.detail);
      }
    });
  }
}

// ---- suite 4: fault injection + checkpoint recovery ------------------------
//
// For each scenario: train the 1.5D engine fault-free, then again under a
// FaultPlan drawn deterministically from the seed (targeted at the observed
// superstep range) with the checkpoint-recovery loop. Recovery must land on
// the fault-free trajectory — losses and final parameters — and any injected
// fault must resolve (recover or fail structured) rather than deadlock. A
// divergence replays with `diff_fuzz --suite faults --seed N`; the plan's
// spec string is part of the failure detail so the exact fault schedule can
// also be replayed standalone via AGNN_FAULTS.
inline void check_fault_recovery(const Scenario& sc, Failures& out) {
  const auto kind = static_cast<ModelKind>(sc.kind);
  const auto g = make_graph<double>(sc);
  const CsrMatrix<double> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(g) : g;
  const auto x = make_features<double>(sc, sc.n, sc.k, 31);

  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = sc.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(sc.layers), sc.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 7117;

  std::vector<index_t> labels(static_cast<std::size_t>(sc.n));
  {
    Rng rng(sc.seed * 0xd1342543de82ef95ULL + 37);
    for (auto& l : labels) {
      l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(sc.k)));
    }
  }

  const int ranks = sc.ranks_grid;
  constexpr int kEpochs = 4;
  struct Outcome {
    std::vector<double> losses;
    std::vector<double> params;
    int restores = 0;
    std::uint64_t supersteps = 0;
  };
  std::mutex mu;
  const auto run_training = [&](const comm::FaultPlan& plan, Outcome& res) {
    comm::RunOptions opts;
    opts.faults = plan;
    if (!plan.empty()) opts.timeout = std::chrono::milliseconds(300);
    const auto snaps =
        comm::SpmdRuntime::run(ranks, opts, [&](comm::Communicator& world) {
          GnnModel<double> model(cfg);
          dist::DistEngine<double> engine(world, adj, model,
                                          dist::DistPolicy::k1_5D);
          SgdOptimizer<double> opt(0.05);
          dist::RecoveryOptions ropts;
          ropts.checkpoint_every = 2;
          const auto report = dist::train_with_recovery<double>(
              world, engine, model, opt, x, labels, kEpochs, {}, ropts);
          if (world.rank() == 0) {
            std::lock_guard<std::mutex> lock(mu);
            res.losses = report.losses;
            res.restores = report.restores;
            dist::collect_params(model, res.params);
          }
        });
    res.supersteps = comm::max_supersteps(snaps);
  };

  Outcome clean;
  run_training({}, clean);

  const comm::FaultPlan plan = comm::FaultPlan::random(
      sc.seed, ranks, std::max<std::uint64_t>(clean.supersteps, 4));
  Outcome chaos;
  try {
    run_training(plan, chaos);
  } catch (const comm::CommError& e) {
    // A random plan has at most one abort-class event; bounded retries must
    // absorb it. Reaching here means recovery itself failed.
    out.push_back({"fault_recovery_unrecovered",
                   std::string(e.what()) + " plan=" + plan.spec()});
    return;
  }

  // Same trajectory as the fault-free run. 1e-12, not bitwise: several
  // kernels reduce via dynamically-scheduled per-thread partials, so
  // summation order is not identical run to run.
  constexpr double kReplayTol = 1e-12;
  if (chaos.losses.size() != clean.losses.size()) {
    out.push_back({"fault_recovery_losses", "epoch count mismatch"});
  } else {
    for (std::size_t e = 0; e < clean.losses.size(); ++e) {
      if (!near(chaos.losses[e], clean.losses[e], kReplayTol)) {
        out.push_back({"fault_recovery_losses",
                       "epoch " + std::to_string(e) + ": " +
                           std::to_string(chaos.losses[e]) + " vs " +
                           std::to_string(clean.losses[e]) +
                           " plan=" + plan.spec()});
        break;
      }
    }
  }
  if (chaos.params.size() != clean.params.size()) {
    out.push_back({"fault_recovery_params", "parameter count mismatch"});
  } else {
    for (std::size_t i = 0; i < clean.params.size(); ++i) {
      if (!near(chaos.params[i], clean.params[i], kReplayTol)) {
        out.push_back({"fault_recovery_params",
                       "param " + std::to_string(i) + ": " +
                           std::to_string(chaos.params[i]) + " vs " +
                           std::to_string(clean.params[i]) +
                           " plan=" + plan.spec()});
        break;
      }
    }
  }
}

// ---- serving suite ---------------------------------------------------------
// The online-serving invariants under adversarial graphs and feature
// regimes: fan-out bounds and seed-local renumbering structure, exact
// seed replay, and the batching-invisibility contract — the block-diagonal
// batched forward must be BITWISE equal to each request served alone, and
// both must equal an independent oracle (model.infer over the widest
// square block, reading the seed row; valid because levels are nested
// prefixes and every forward kernel is row-local).
inline void check_serving(const Scenario& sc, Failures& out) {
  const auto kind = static_cast<ModelKind>(sc.kind);
  const auto g = make_graph<double>(sc);
  const CsrMatrix<double> adj =
      kind == ModelKind::kGCN ? graph::sym_normalize(g) : g;
  const auto x = make_features<double>(sc, sc.n, sc.k, 53);

  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = sc.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(sc.layers), sc.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4243;
  const GnnModel<double> model(cfg);

  Rng rng(sc.seed * 0xa24baed4963ee407ULL + 91);
  const auto fanout = static_cast<index_t>(1 + rng.next_bounded(6));
  const serve::NeighborSampler sampler(fanout,
                                       static_cast<index_t>(sc.layers),
                                       /*base_seed=*/sc.seed);
  const std::size_t batch_size = 1 + rng.next_bounded(6);
  std::vector<index_t> vertices;
  for (std::size_t r = 0; r < batch_size; ++r) {
    vertices.push_back(
        static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(sc.n))));
  }

  std::vector<serve::SampledEgoNet<double>> nets;
  for (std::size_t r = 0; r < batch_size; ++r) {
    nets.push_back(sampler.sample_for_request<double>(
        adj, vertices[r], static_cast<std::uint64_t>(r)));
  }

  // Structural invariants per net: square blocks, fan-out-bounded and
  // in-range dst rows, seed-local numbering, empty pad rows.
  for (std::size_t r = 0; r < nets.size(); ++r) {
    const auto& net = nets[r];
    if (net.vertices.empty() || net.vertices.front() != vertices[r]) {
      out.push_back({"serving_renumber", "seed not at local index 0"});
      return;
    }
    for (std::size_t i = 0; i < net.blocks.size(); ++i) {
      const auto& b = net.blocks[i];
      if (b.rows() != b.cols() || b.rows() != net.src_size(i)) {
        out.push_back({"serving_block_shape",
                       "request " + std::to_string(r) + " layer " +
                           std::to_string(i) + " not square over src level"});
        return;
      }
      for (index_t d = 0; d < b.rows(); ++d) {
        const index_t deg = b.row_end(d) - b.row_begin(d);
        if (d < net.dst_size(i) ? deg > fanout : deg != 0) {
          out.push_back({"serving_fanout",
                         "request " + std::to_string(r) + " layer " +
                             std::to_string(i) + " row " + std::to_string(d) +
                             " violates the fan-out/pad contract"});
          return;
        }
        for (index_t e = b.row_begin(d); e < b.row_end(d); ++e) {
          if (b.col_at(e) < 0 || b.col_at(e) >= net.num_vertices()) {
            out.push_back({"serving_renumber", "local column out of range"});
            return;
          }
        }
      }
    }
  }

  // Exact replay: request 0 resampled must reproduce its ego net.
  {
    const auto again = sampler.sample_for_request<double>(adj, vertices[0], 0);
    if (again.vertices != nets[0].vertices ||
        again.level_sizes != nets[0].level_sizes) {
      out.push_back({"serving_replay", "resampling request 0 diverged"});
      return;
    }
  }

  // Batched forward.
  std::vector<const serve::SampledEgoNet<double>*> ptrs;
  for (const auto& n : nets) ptrs.push_back(&n);
  const auto bb = serve::build_batch(
      std::span<const serve::SampledEgoNet<double>* const>(ptrs));
  Workspace<double> ws;
  DenseMatrix<double> x0(static_cast<index_t>(bb.input_vertices.size()), sc.k);
  gather_rows(x, std::span<const index_t>(bb.input_vertices), x0);
  DenseMatrix<double> batched;
  serve::forward_batch(model, bb, x0, ws, batched);
  if (batched.rows() != static_cast<index_t>(batch_size)) {
    out.push_back({"serving_batched", "one output row per request expected"});
    return;
  }

  for (std::size_t r = 0; r < batch_size; ++r) {
    // Oracle 1: the same request served alone through the serving path.
    const auto solo = serve::serve_sequential(
        model, adj, x, sampler, vertices[r],
        serve::derive_request_seed(sc.seed, static_cast<std::uint64_t>(r)), ws);
    // Oracle 2: plain model.infer over the widest square block.
    DenseMatrix<double> x_ego(nets[r].num_vertices(), sc.k);
    gather_rows(x, std::span<const index_t>(nets[r].vertices), x_ego);
    const auto full = model.infer(nets[r].blocks[0], x_ego);
    const auto row = batched.row(static_cast<index_t>(r));
    for (std::size_t j = 0; j < solo.size(); ++j) {
      if (!bits_equal(row[j], solo[j])) {
        out.push_back({"serving_batched_vs_sequential",
                       "request " + std::to_string(r) + " [" +
                           std::to_string(j) + "]: " + std::to_string(row[j]) +
                           " vs " + std::to_string(solo[j])});
        return;
      }
      if (!bits_equal(solo[j], full(0, static_cast<index_t>(j)))) {
        out.push_back({"serving_vs_infer_oracle",
                       "request " + std::to_string(r) + " [" +
                           std::to_string(j) + "]: " + std::to_string(solo[j]) +
                           " vs " +
                           std::to_string(full(0, static_cast<index_t>(j)))});
        return;
      }
    }
  }
}

}  // namespace agnn::diffuzz
