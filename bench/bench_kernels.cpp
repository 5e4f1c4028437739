// Kernel-level benchmarks and design-choice ablations:
//
//   * Section 6.1/6.2 fusion ablation — the fused Psi kernels (virtual
//     intermediates) vs the unfused reference that materializes the dense
//     n x n matrices, and the fully-fused SDDMM+SpMM aggregation vs the
//     two-kernel pipeline;
//   * Section 4.4 Phi ∘ ⊕ ordering — (Psi H) W vs Psi (H W) at different
//     width ratios (the SpMMM association-order choice);
//   * Section 4.3 semiring aggregations — sum/min/max/mean SpMM;
//   * per-edge local-formulation (DGL-style UDF) execution vs the global
//     fused kernels at equal math;
//   * CSR SpMM loop scheduling (static vs dynamic) on a heavy-tail graph;
//   * the dense GEMM core (matmul, matmul_nt, matmul_tn) at one train-kron
//     layer's shape;
//   * a backward value transpose M^T H: transposed_into then SpMM, against
//     the SpMM that reads M^T through A^T's source-edge map;
//   * the SDDMM and SpMM kernels that run on the sparse core
//     (tensor/sparse_core.hpp) on train-kron's graph;
//   * matmul_tn and matmul_nt with 1.2% subnormal entries in G, and the
//     cross-entropy loss on unsaturated and saturated logits.
#include <benchmark/benchmark.h>

#include <limits>

#include "baseline/local_engine.hpp"
#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "tensor/fused.hpp"
#include "tensor/reference_impls.hpp"
#include "tensor/spgemm.hpp"
#include "tensor/spmm.hpp"

namespace agnn::bench {
namespace {

struct KernelFixture {
  graph::Graph<real_t> g;
  DenseMatrix<real_t> h;
  DenseMatrix<real_t> w;
  std::vector<real_t> s1, s2;

  KernelFixture(index_t n, double density, index_t k)
      : g(kronecker_graph(static_cast<int>(std::round(std::log2(n))), density, 17)),
        h(g.num_vertices(), k),
        w(k, k) {
    Rng rng(3);
    h.fill_uniform(rng, -1.0, 1.0);
    w.fill_glorot(rng);
    s1.resize(static_cast<std::size_t>(g.num_vertices()));
    s2.resize(static_cast<std::size_t>(g.num_vertices()));
    for (auto& v : s1) v = static_cast<real_t>(rng.next_uniform(-1, 1));
    for (auto& v : s2) v = static_cast<real_t>(rng.next_uniform(-1, 1));
  }
};

KernelFixture& fixture(index_t n, double density, index_t k) {
  struct Key {
    index_t n;
    double d;
    index_t k;
  };
  static std::vector<std::pair<Key, KernelFixture>> cache;
  for (auto& [key, f] : cache) {
    if (key.n == n && key.d == density && key.k == k) return f;
  }
  cache.emplace_back(Key{n, density, k}, KernelFixture(n, density, k));
  return cache.back().second;
}

// ---- fusion ablation ------------------------------------------------------------

void PsiVaFused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) benchmark::DoNotOptimize(psi_va(f.g.adj, f.h));
  state.counters["nnz"] = static_cast<double>(f.g.num_edges());
}
void PsiVaUnfused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::psi_va_unfused(f.g.adj, f.h));
  }
}
void PsiGatFused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi_gat<real_t>(f.g.adj, f.s1, f.s2, 0.2f));
  }
}
void PsiGatUnfused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(row_softmax(
        reference::gat_scores_unfused<real_t>(f.g.adj, f.s1, f.s2, 0.2f)));
  }
}
void PsiAgnnFused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) benchmark::DoNotOptimize(psi_agnn(f.g.adj, f.h));
}
void PsiAgnnUnfused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::psi_agnn_unfused(f.g.adj, f.h));
  }
}

// Deep fusion: SDDMM folded into the following SpMM (no Psi materialized).
void VaAggregateDeepFused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused_va_aggregate(f.g.adj, f.h, f.h));
  }
}
void VaAggregateTwoKernel(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(psi_va(f.g.adj, f.h), f.h));
  }
}
void GatAggregateDeepFused(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fused_gat_aggregate<real_t>(f.g.adj, f.s1, f.s2, 0.2f, f.h));
  }
}
void GatAggregateTwoKernel(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  for (auto _ : state) {
    const auto gp = psi_gat<real_t>(f.g.adj, f.s1, f.s2, 0.2f);
    benchmark::DoNotOptimize(spmm(gp.psi, f.h));
  }
}

// ---- Phi ∘ ⊕ ordering (Section 4.4) ----------------------------------------------

void PhiAfterAggregate(benchmark::State& state) {
  // Z = (Psi H) W — cheap when k_out >= k_in.
  auto& f = fixture(1024, 0.01, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(spmm(f.g.adj, f.h), f.w));
  }
}
void PhiBeforeAggregate(benchmark::State& state) {
  // Z = Psi (H W) — cheap when k_out <= k_in.
  auto& f = fixture(1024, 0.01, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(f.g.adj, matmul(f.h, f.w)));
  }
}
void SpmmmAutoOrder(benchmark::State& state) {
  auto& f = fixture(1024, 0.01, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(spmmm(f.g.adj, f.h, f.w));
}

// ---- semiring aggregations (Section 4.3) ------------------------------------------

void SemiringAggregate(benchmark::State& state) {
  auto& f = fixture(2048, 0.01, 16);
  const auto agg = static_cast<Aggregation>(state.range(0));
  const CsrMatrix<real_t> a =
      (agg == Aggregation::kMin || agg == Aggregation::kMax)
          ? f.g.adj.with_values(0.0f)
          : f.g.adj;
  for (auto _ : state) benchmark::DoNotOptimize(aggregate(a, f.h, agg));
  state.SetLabel(to_string(agg));
}

// ---- per-edge (local, DGL-UDF style) vs global execution ---------------------------

void LayerGlobalKernels(benchmark::State& state) {
  auto& f = fixture(2048, 0.01, 16);
  const auto kind = static_cast<ModelKind>(state.range(0));
  GnnModel<real_t> model(model_config(kind, 16, 1));
  for (auto _ : state) benchmark::DoNotOptimize(model.infer(f.g.adj, f.h));
  state.SetLabel(to_string(kind));
}
void LayerLocalPerEdge(benchmark::State& state) {
  auto& f = fixture(2048, 0.01, 16);
  const auto kind = static_cast<ModelKind>(state.range(0));
  GnnModel<real_t> model(model_config(kind, 16, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::local_infer(model, f.g.adj, f.h));
  }
  state.SetLabel(to_string(kind));
}

// ---- other core kernels ---------------------------------------------------------------

void SpgemmAA(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  const auto ones = f.g.adj.with_values(1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(spgemm(ones, ones));
  state.counters["nnz"] = static_cast<double>(f.g.num_edges());
}
void SpgemmMaskedTriangles(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  const auto ones = f.g.adj.with_values(1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(spgemm_masked(ones, ones, ones));
}
void SparseTranspose(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  for (auto _ : state) benchmark::DoNotOptimize(f.g.adj.transposed());
}
void GraphSoftmax(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  for (auto _ : state) benchmark::DoNotOptimize(row_softmax(f.g.adj));
}
void SddmmKernel(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, state.range(1));
  for (auto _ : state) benchmark::DoNotOptimize(sddmm(f.g.adj, f.h, f.h));
}
// Sparse reductions: row sums walk CSR rows contiguously; col sums scatter
// into per-thread partials above the parallel-path nnz threshold (1 << 13).
void SparseRowSums(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  std::vector<real_t> sums;
  for (auto _ : state) {
    sparse_row_sums(f.g.adj, sums);
    benchmark::DoNotOptimize(sums.data());
  }
  state.counters["nnz"] = static_cast<double>(f.g.num_edges());
}
void SparseColSums(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, 16);
  std::vector<real_t> sums;
  for (auto _ : state) {
    sparse_col_sums(f.g.adj, sums);
    benchmark::DoNotOptimize(sums.data());
  }
  state.counters["nnz"] = static_cast<double>(f.g.num_edges());
}

// ---- workspace-backed (pooled) execution -------------------------------------------
//
// The out-parameter overloads fed from a Workspace pool: after the first
// iteration every buffer is recycled, so these runs isolate kernel math from
// allocator traffic. Counters report the pool's behavior over the measured
// iterations: hit rate, misses (fresh heap blocks), resident pool size, and
// payload bytes handed out per iteration.

void report_workspace(benchmark::State& state, const WorkspaceStats& st) {
  state.counters["ws_hit_rate"] = st.hit_rate();
  state.counters["ws_misses"] = static_cast<double>(st.pool_misses);
  state.counters["ws_resident_MB"] =
      static_cast<double>(st.resident_bytes) / 1e6;
  state.counters["ws_acquired_MB_iter"] = benchmark::Counter(
      static_cast<double>(st.bytes_acquired) / 1e6,
      benchmark::Counter::kAvgIterations);
}

void SpmmPooled(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, state.range(1));
  Workspace<real_t> ws;
  for (auto _ : state) {
    auto out = ws.acquire_dense(f.g.num_vertices(), f.h.cols());
    spmm(f.g.adj, f.h, *out);
    benchmark::DoNotOptimize(out->data());
  }
  report_workspace(state, ws.stats());
}
void PsiGatPooled(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  Workspace<real_t> ws;
  for (auto _ : state) {
    auto pre = ws.acquire_csr_like(f.g.adj);
    auto psi = ws.acquire_csr_like(f.g.adj);
    psi_gat<real_t>(f.g.adj, f.s1, f.s2, 0.2f, *pre, *psi);
    benchmark::DoNotOptimize(psi->vals().data());
  }
  report_workspace(state, ws.stats());
}
void SddmmPooled(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.005, state.range(1));
  Workspace<real_t> ws;
  for (auto _ : state) {
    auto out = ws.acquire_csr_like(f.g.adj);
    sddmm(f.g.adj, f.h, f.h, *out);
    benchmark::DoNotOptimize(out->vals().data());
  }
  report_workspace(state, ws.stats());
}
void LayerForwardPooled(benchmark::State& state) {
  auto& f = fixture(2048, 0.01, 16);
  const auto kind = static_cast<ModelKind>(state.range(0));
  GnnModel<real_t> model(model_config(kind, 16, 1));
  Workspace<real_t> ws;
  DenseMatrix<real_t> h_out;
  for (auto _ : state) {
    baseline::local_infer(model, f.g.adj, f.h, ws, h_out);
    benchmark::DoNotOptimize(h_out.data());
  }
  report_workspace(state, ws.stats());
  state.SetLabel(to_string(kind));
}
// Full training step through the persistent Trainer: counters measured after
// a warm-up step, so ws_misses == 0 demonstrates the steady-state claim.
void TrainStepPooled(benchmark::State& state) {
  auto& f = fixture(1024, 0.01, 16);
  const auto kind = static_cast<ModelKind>(state.range(0));
  const index_t n = f.g.num_vertices();
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 2;
  GnnModel<real_t> model(model_config(kind, 16, 2));
  Trainer<real_t> trainer(model, std::make_unique<AdamOptimizer<real_t>>(0.01));
  const CsrMatrix<real_t> adj_t = f.g.adj.transposed();
  trainer.step(f.g.adj, adj_t, f.h, labels);  // warm-up epoch
  trainer.workspace().reset_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.step(f.g.adj, adj_t, f.h, labels).loss);
  }
  report_workspace(state, trainer.workspace_stats());
  state.SetLabel(to_string(kind));
}

// ---- SpMM scheduling ablation -------------------------------------------------------

template <bool kDynamic>
DenseMatrix<real_t> spmm_scheduled(const CsrMatrix<real_t>& a,
                                   const DenseMatrix<real_t>& h) {
  const index_t n = a.rows(), k = h.cols();
  DenseMatrix<real_t> out(n, k, 0.0f);
  if constexpr (kDynamic) {
#pragma omp parallel for schedule(dynamic, 64)
    for (index_t i = 0; i < n; ++i) {
      real_t* oi = out.data() + i * k;
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
        const real_t* hj = h.data() + a.col_at(e) * k;
        const real_t av = a.val_at(e);
        for (index_t g = 0; g < k; ++g) oi[g] += av * hj[g];
      }
    }
  } else {
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < n; ++i) {
      real_t* oi = out.data() + i * k;
      for (index_t e = a.row_begin(i); e < a.row_end(i); ++e) {
        const real_t* hj = h.data() + a.col_at(e) * k;
        const real_t av = a.val_at(e);
        for (index_t g = 0; g < k; ++g) oi[g] += av * hj[g];
      }
    }
  }
  return out;
}

// ---- tracing overhead (the obs/trace.hpp contract) --------------------------------
//
// Every kernel above already contains AGNN_TRACE_SCOPE; these two measure what
// that costs. TraceSpanDisabled is the per-span price every untraced run pays
// (contract: one relaxed atomic load + branch in the constructor, one
// predictable member-bool branch in the destructor — single-digit ns, which
// against the µs-scale kernels above is the <1% overhead the design promises,
// cf. GatAggregateDeepFused). TraceSpanEnabled is the recording price.

void TraceSpanDisabled(benchmark::State& state) {
  obs::Tracer::set_enabled(false);
  for (auto _ : state) {
    AGNN_TRACE_SCOPE("bench_span", kKernel);
    benchmark::ClobberMemory();
  }
}
void TraceSpanEnabled(benchmark::State& state) {
  obs::Tracer::instance().set_buffer_capacity(1u << 16);
  obs::Tracer::instance().clear();
  obs::Tracer::set_enabled(true);
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Drain the thread buffer before it fills so every iteration measures
    // the accept path, not the drop path. clear() is safe here: same
    // thread, no span open.
    if ((++i & ((1u << 14) - 1)) == 0) obs::Tracer::instance().clear();
    AGNN_TRACE_SCOPE("bench_span", kKernel);
    benchmark::ClobberMemory();
  }
  obs::Tracer::set_enabled(false);
  obs::Tracer::instance().clear();
}
// The fused-GAT microbench with recording on: compare against
// GatAggregateDeepFused (same math, spans compiled in but disabled) to see
// the end-to-end tracing cost on a real kernel.
void GatAggregateDeepFusedTraced(benchmark::State& state) {
  auto& f = fixture(state.range(0), 0.01, state.range(1));
  obs::Tracer::instance().set_buffer_capacity(1u << 16);
  obs::Tracer::instance().clear();
  obs::Tracer::set_enabled(true);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if ((++i & ((1u << 12) - 1)) == 0) obs::Tracer::instance().clear();
    benchmark::DoNotOptimize(
        fused_gat_aggregate<real_t>(f.g.adj, f.s1, f.s2, 0.2f, f.h));
  }
  obs::Tracer::set_enabled(false);
  obs::Tracer::instance().clear();
  // Tracing was on, so the kernel's latency histogram recorded every call:
  // surface its tail (and, under AGNN_PERF, the hardware counters) in the
  // report.
  attach_histogram_quantiles(state, "kernel.fused_gat_aggregate.ns");
  attach_perf_counters(state, "fused_gat_aggregate");
}

void SpmmStatic(benchmark::State& state) {
  auto& f = fixture(4096, 0.005, 16);  // heavy-tail: load imbalance matters
  for (auto _ : state) benchmark::DoNotOptimize(spmm_scheduled<false>(f.g.adj, f.h));
}
void SpmmDynamic(benchmark::State& state) {
  auto& f = fixture(4096, 0.005, 16);
  for (auto _ : state) benchmark::DoNotOptimize(spmm_scheduled<true>(f.g.adj, f.h));
}

// ---- dense GEMM core ----------------------------------------------------------
// The three GEMM forms at the shape of one train-kron layer: 16384 x 64
// features against a 64 x 64 weight, float, at 1 and 4 OpenMP threads.
// matmul is H W, matmul_nt is G W^T, matmul_tn is H^T G.
enum class GemmForm { kNN, kNT, kTN };

DenseMatrix<real_t> uniform_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix<real_t> m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1.0, 1.0);
  return m;
}

void DenseGemm(benchmark::State& state, GemmForm form) {
  static const auto h = uniform_matrix(16384, 64, 29);
  static const auto g = uniform_matrix(16384, 64, 31);
  static const auto w = uniform_matrix(64, 64, 37);
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  DenseMatrix<real_t> out;
  for (auto _ : state) {
    switch (form) {
      case GemmForm::kNN: matmul(h, w, out); break;
      case GemmForm::kNT: matmul_nt(g, w, out); break;
      case GemmForm::kTN: matmul_tn(h, g, out); break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

// ---- subnormal operands -----------------------------------------------------
// matmul_tn (H^T G) and matmul_nt (G W^T) at the dense GEMM shape, with G as
// a saturated model's two-exp loss gradient left it: 1.2% of its entries
// subnormal ("subnormal"), or the same entries +0 as softmax_cross_entropy
// now writes them ("normal"). On x86 without FTZ/DAZ every operation on a
// subnormal operand takes a microcode assist.
DenseMatrix<real_t> with_tiny_entries(bool subnormal) {
  DenseMatrix<real_t> g = uniform_matrix(16384, 64, 31);
  Rng rng(59);
  const double sub_max = std::numeric_limits<real_t>::min();
  const double sub_min = std::numeric_limits<real_t>::denorm_min();
  for (auto& v : g.flat()) {
    const double tiny = rng.next_uniform(sub_min, sub_max);
    if (rng.next_double() < 0.012) v = subnormal ? static_cast<real_t>(tiny) : real_t(0);
  }
  return g;
}

void SubnormalOperand(benchmark::State& state, GemmForm form, bool subnormal) {
  static const auto h = uniform_matrix(16384, 64, 29);
  static const auto w = uniform_matrix(64, 64, 37);
  static const DenseMatrix<real_t> g_sub = with_tiny_entries(true);
  static const DenseMatrix<real_t> g_zero = with_tiny_entries(false);
  const DenseMatrix<real_t>& g = subnormal ? g_sub : g_zero;
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  DenseMatrix<real_t> out;
  for (auto _ : state) {
    if (form == GemmForm::kTN) {
      matmul_tn(h, g, out);
    } else {
      matmul_nt(g, w, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

// ---- cross-entropy loss -----------------------------------------------------
// softmax_cross_entropy on 16384 x 64 float logits at 1 and 4 threads.
// "unsaturated": U(-5, 5) logits. "saturated": as a trained VA, AGNN or GIN
// leaves them, 35% of the non-label logits pushed 90 to 300 below the rest,
// so the plain formula's probabilities underflow.
struct LossInputs {
  DenseMatrix<real_t> h;
  std::vector<index_t> labels;
};

LossInputs loss_inputs(bool saturated) {
  LossInputs in{DenseMatrix<real_t>(16384, 64), std::vector<index_t>(16384)};
  Rng rng(61);
  for (index_t i = 0; i < in.h.rows(); ++i) {
    const auto y = static_cast<index_t>(rng.next_bounded(64));
    in.labels[static_cast<std::size_t>(i)] = y;
    for (index_t j = 0; j < in.h.cols(); ++j) {
      double v = rng.next_uniform(-5, 5);
      if (saturated && j != y && rng.next_double() < 0.35) v -= rng.next_uniform(90, 300);
      in.h(i, j) = static_cast<real_t>(v);
    }
  }
  return in;
}

void CrossEntropy(benchmark::State& state, bool saturated) {
  static const LossInputs unsaturated_in = loss_inputs(false);
  static const LossInputs saturated_in = loss_inputs(true);
  const LossInputs& in = saturated ? saturated_in : unsaturated_in;
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  LossResult<real_t> out;
  for (auto _ : state) {
    softmax_cross_entropy(in.h, std::span<const index_t>(in.labels), out);
    benchmark::DoNotOptimize(out.grad.data());
    benchmark::ClobberMemory();
  }
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

// ---- transposes in backward -------------------------------------------------
// M^T H for an M with A's pattern, on train-kron's graph (Kronecker scale 14,
// 16 n edge samples, symmetrized, self-loops; about 450k non-zeros) at
// k = 64, float, 1 and 4 OpenMP threads: a serial transposed_into of M
// followed by spmm_accumulate, against the gather through A^T's
// source_edges() map.
enum class TransposeForm { kTransposeThenSpmm, kGather };

struct TrainKronInputs {
  CsrMatrix<real_t> a, at, m;
  DenseMatrix<real_t> h;
};

// train-kron's graph, A^T with its source-edge map, an M with A's pattern
// and uniform values, and a k = 64 feature matrix.
const TrainKronInputs& train_kron_inputs() {
  static const TrainKronInputs in = [] {
    graph::KroneckerParams p;
    p.scale = 14;
    p.edges = index_t(16) << 14;
    p.seed = 41;
    graph::BuildOptions opt;
    opt.add_self_loops = true;
    TrainKronInputs r;
    r.a = graph::build_graph<real_t>(graph::generate_kronecker(p), opt).adj;
    r.at = r.a.transposed();
    r.m = r.a;
    Rng rng(43);
    for (auto& v : r.m.vals_mutable()) v = static_cast<real_t>(rng.next_uniform(-1, 1));
    r.h = uniform_matrix(r.a.rows(), 64, 47);
    return r;
  }();
  return in;
}

void SpmmTransposed(benchmark::State& state, TransposeForm form) {
  const TrainKronInputs& in = train_kron_inputs();
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  CsrMatrix<real_t> mt;
  DenseMatrix<real_t> out(in.a.cols(), in.h.cols(), real_t(0));
  for (auto _ : state) {
    if (form == TransposeForm::kTransposeThenSpmm) {
      in.m.transposed_into(mt);
      spmm_accumulate(mt, in.h, out);
    } else {
      spmm_accumulate_transposed(in.at, in.m.vals(), in.h, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(in.a.nnz());
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

// ---- the sparse core ---------------------------------------------------------
// The kernels that run on tensor/sparse_core.hpp, on train-kron's graph at
// k = 64, float, 1 and 4 OpenMP threads: the edge-lane dot (sddmm,
// psi_agnn), the row-register aggregate (spmm, the gathered
// spmm_accumulate_transposed, fused GAT) and both (fused VA).
enum class CoreKernel { kSddmm, kPsiAgnn, kSpmm, kSpmmAccTransposed, kFusedVa, kFusedGat };

void SparseCore(benchmark::State& state, CoreKernel kernel) {
  const TrainKronInputs& in = train_kron_inputs();
  static const DenseMatrix<real_t> g = uniform_matrix(in.a.rows(), 64, 53);
  static const std::vector<real_t> norms = row_l2_norms(in.h);
  static const std::vector<real_t> s1 = matvec(in.h, g.row(0));
  static const std::vector<real_t> s2 = matvec(in.h, g.row(1));
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  CsrMatrix<real_t> sampled;
  DenseMatrix<real_t> out(in.a.rows(), in.h.cols(), real_t(0));
  for (auto _ : state) {
    switch (kernel) {
      case CoreKernel::kSddmm: sddmm(in.a, in.h, g, sampled); break;
      case CoreKernel::kPsiAgnn:
        psi_agnn(in.a, in.h, std::span<const real_t>(norms), sampled);
        break;
      case CoreKernel::kSpmm: spmm(in.a, in.h, out); break;
      case CoreKernel::kSpmmAccTransposed:
        spmm_accumulate_transposed(in.at, in.m.vals(), in.h, out);
        break;
      case CoreKernel::kFusedVa: fused_va_aggregate(in.a, in.h, g, out); break;
      case CoreKernel::kFusedGat:
        fused_gat_aggregate(in.a, std::span<const real_t>(s1), std::span<const real_t>(s2),
                            real_t(0.2), in.h, out);
        break;
    }
    benchmark::DoNotOptimize(sampled.vals().data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(in.a.nnz());
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

BENCHMARK_CAPTURE(SparseCore, sddmm, CoreKernel::kSddmm)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SparseCore, psi_agnn, CoreKernel::kPsiAgnn)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SparseCore, spmm, CoreKernel::kSpmm)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SparseCore, spmm_accumulate_transposed, CoreKernel::kSpmmAccTransposed)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SparseCore, fused_va_aggregate, CoreKernel::kFusedVa)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SparseCore, fused_gat_aggregate, CoreKernel::kFusedGat)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SpmmTransposed, transpose_then_spmm, TransposeForm::kTransposeThenSpmm)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SpmmTransposed, gather, TransposeForm::kGather)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(DenseGemm, matmul, GemmForm::kNN)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(DenseGemm, matmul_nt, GemmForm::kNT)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(DenseGemm, matmul_tn, GemmForm::kTN)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SubnormalOperand, matmul_tn/normal, GemmForm::kTN, false)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SubnormalOperand, matmul_tn/subnormal, GemmForm::kTN, true)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SubnormalOperand, matmul_nt/normal, GemmForm::kNT, false)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(SubnormalOperand, matmul_nt/subnormal, GemmForm::kNT, true)
    ->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(CrossEntropy, unsaturated, false)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(CrossEntropy, saturated, true)->ArgName("threads")->Arg(1)->Arg(4);
BENCHMARK(PsiVaFused)->Args({512, 16})->Args({1024, 16})->Args({1024, 128});
BENCHMARK(PsiVaUnfused)->Args({512, 16})->Args({1024, 16})->Args({1024, 128});
BENCHMARK(PsiAgnnFused)->Args({512, 16})->Args({1024, 16});
BENCHMARK(PsiAgnnUnfused)->Args({512, 16})->Args({1024, 16});
BENCHMARK(PsiGatFused)->Args({512, 16})->Args({1024, 16});
BENCHMARK(PsiGatUnfused)->Args({512, 16})->Args({1024, 16});
BENCHMARK(VaAggregateDeepFused)->Args({1024, 16})->Args({1024, 128});
BENCHMARK(VaAggregateTwoKernel)->Args({1024, 16})->Args({1024, 128});
BENCHMARK(GatAggregateDeepFused)->Args({1024, 16});
BENCHMARK(GatAggregateTwoKernel)->Args({1024, 16});
BENCHMARK(PhiAfterAggregate)->Arg(16)->Arg(64)->Arg(128);
BENCHMARK(PhiBeforeAggregate)->Arg(16)->Arg(64)->Arg(128);
BENCHMARK(SpmmmAutoOrder)->Arg(16)->Arg(64)->Arg(128);
BENCHMARK(SemiringAggregate)
    ->Arg(static_cast<long>(Aggregation::kSum))
    ->Arg(static_cast<long>(Aggregation::kMin))
    ->Arg(static_cast<long>(Aggregation::kMax))
    ->Arg(static_cast<long>(Aggregation::kMean));
BENCHMARK(LayerGlobalKernels)
    ->Arg(static_cast<long>(ModelKind::kVA))
    ->Arg(static_cast<long>(ModelKind::kAGNN))
    ->Arg(static_cast<long>(ModelKind::kGAT));
BENCHMARK(LayerLocalPerEdge)
    ->Arg(static_cast<long>(ModelKind::kVA))
    ->Arg(static_cast<long>(ModelKind::kAGNN))
    ->Arg(static_cast<long>(ModelKind::kGAT));
BENCHMARK(SpmmPooled)->Args({2048, 16})->Args({2048, 128});
BENCHMARK(SddmmPooled)->Args({2048, 16})->Args({2048, 128});
BENCHMARK(PsiGatPooled)->Args({1024, 16});
BENCHMARK(LayerForwardPooled)
    ->Arg(static_cast<long>(ModelKind::kVA))
    ->Arg(static_cast<long>(ModelKind::kAGNN))
    ->Arg(static_cast<long>(ModelKind::kGAT));
BENCHMARK(TrainStepPooled)
    ->Arg(static_cast<long>(ModelKind::kGCN))
    ->Arg(static_cast<long>(ModelKind::kGAT));
BENCHMARK(SpmmStatic);
BENCHMARK(SpmmDynamic);
BENCHMARK(SpgemmAA)->Arg(1024)->Arg(2048);
BENCHMARK(SpgemmMaskedTriangles)->Arg(1024)->Arg(2048);
BENCHMARK(SparseTranspose)->Arg(2048)->Arg(4096);
BENCHMARK(GraphSoftmax)->Arg(2048)->Arg(4096);
BENCHMARK(SddmmKernel)->Args({2048, 16})->Args({2048, 128});
BENCHMARK(SparseRowSums)->Arg(2048)->Arg(8192);
BENCHMARK(SparseColSums)->Arg(2048)->Arg(8192);
BENCHMARK(TraceSpanDisabled);
BENCHMARK(TraceSpanEnabled);
BENCHMARK(GatAggregateDeepFusedTraced)->Args({1024, 16});

}  // namespace
}  // namespace agnn::bench

AGNN_BENCH_MAIN()
