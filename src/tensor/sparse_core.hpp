// The sparse core behind every SDDMM and SpMM kernel (DESIGN.md §17).
//
// Two tiles, each over one row i's edge range [e0, e1) of a CSR pattern
// (`cols` is the pattern's column array):
//
//   edge_dots   store(t, <x, y_{cols[t]}>) for every edge t, the per-edge
//               dot of SDDMM and the Ψ kernels. Up to 8 edges sit in vector
//               lanes, and each lane runs one dot in g order from zero. An
//               in-register transpose brings the y rows into lanes.
//   aggregate   out = (out or 0) + sum_t weight(t) * h_{cols[t]}, the SpMM
//               row. Up to 8 vectors of the output row stay in registers
//               across all of the row's edges, so each element is loaded
//               and stored once per row instead of once per edge.
//
// The bitwise contract. Every dot equals `acc = 0; for g: acc += x[g] *
// y[g]` and every output element equals `acc = 0 (or out); for t in edge
// order: acc += weight(t) * h[g]`, bit for bit, because the core keeps the
// three rules of the GEMM core (gemm_core.hpp):
//   1. Vectorize only across independent chains: edges for the dots,
//      output columns for the aggregate. Nothing reduces across lanes.
//   2. Keep each chain in its original order, starting from zero.
//   3. Multiply, then add; never FMA (the AVX2 twin enables avx2 only).
// A fourth rule keeps the dots inside their inputs: padding lanes of a
// group shorter than 8 edges repeat the group's first edge, and their
// results are dropped.
//
// Like the GEMM core, the tiles are always_inline templates over the vector
// width, built twice: SparsePortable with 16-byte vectors at the build's
// baseline ISA and, for GCC on x86-64 only, SparseAvx2 with 32-byte vectors
// inside a `#pragma GCC target("avx2")` region. with_sparse_core() hands a
// kernel the twin that have_avx2() picks, once per kernel call; the kernel's
// row loop then calls that twin's tiles directly.
#pragma once

#include <algorithm>
#include <cstring>

#include "tensor/common.hpp"

namespace agnn::detail {

// Edges per edge_dots group, and the most vectors of an output row that
// one aggregate pass keeps in registers.
inline constexpr int kSparseEdgeGroup = 8;
inline constexpr int kSparseRowVectors = 8;

// Transposes a 2 x 2 or 4 x 4 block held as L vectors of L lanes.
template <typename T, typename V, int L>
__attribute__((always_inline)) inline void transpose_block(V (&r)[L]) {
  if constexpr (L == 2) {
    const V a = __builtin_shufflevector(r[0], r[1], 0, 2);
    const V b = __builtin_shufflevector(r[0], r[1], 1, 3);
    r[0] = a;
    r[1] = b;
  } else if constexpr (sizeof(T) == 4) {
    static_assert(L == 4, "transpose_block: 2 or 4 lanes");
    const V a0 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
    const V a1 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
    const V a2 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
    const V a3 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
    r[0] = __builtin_shufflevector(a0, a2, 0, 1, 4, 5);
    r[1] = __builtin_shufflevector(a0, a2, 2, 3, 6, 7);
    r[2] = __builtin_shufflevector(a1, a3, 0, 1, 4, 5);
    r[3] = __builtin_shufflevector(a1, a3, 2, 3, 6, 7);
  } else {
    static_assert(L == 4, "transpose_block: 2 or 4 lanes");
    const V a0 = __builtin_shufflevector(r[0], r[1], 0, 4, 2, 6);
    const V a1 = __builtin_shufflevector(r[0], r[1], 1, 5, 3, 7);
    const V a2 = __builtin_shufflevector(r[2], r[3], 0, 4, 2, 6);
    const V a3 = __builtin_shufflevector(r[2], r[3], 1, 5, 3, 7);
    r[0] = __builtin_shufflevector(a0, a2, 0, 1, 4, 5);
    r[1] = __builtin_shufflevector(a1, a3, 0, 1, 4, 5);
    r[2] = __builtin_shufflevector(a0, a2, 2, 3, 6, 7);
    r[3] = __builtin_shufflevector(a1, a3, 2, 3, 6, 7);
  }
}

// Loads columns [g, g + L) of the L rows `rows[0..L)` and transposes them
// into lanes: afterwards r[c] holds rows[l][g + c] in lane l. The shuffles
// only move lanes. Each block size uses the steps its vector width does in
// one instruction each: unpacks, then 64-bit or 128-bit halves. For 8
// lanes the 128-bit step is folded into the loads, which fill each vector's
// halves from two rows.
template <typename T, typename V, int L>
__attribute__((always_inline)) inline void load_transposed(const T* const* rows,
                                                           index_t g, V (&r)[L]) {
  if constexpr (L == 8) {
    typedef T H __attribute__((vector_size(sizeof(V) / 2)));
    V q[8];
#pragma GCC unroll 8
    for (int l = 0; l < 4; ++l) {
      H lo0, hi0, lo1, hi1;
      std::memcpy(&lo0, rows[l] + g, sizeof(H));
      std::memcpy(&hi0, rows[l + 4] + g, sizeof(H));
      std::memcpy(&lo1, rows[l] + g + 4, sizeof(H));
      std::memcpy(&hi1, rows[l + 4] + g + 4, sizeof(H));
      q[l] = __builtin_shufflevector(lo0, hi0, 0, 1, 2, 3, 4, 5, 6, 7);
      q[l + 4] = __builtin_shufflevector(lo1, hi1, 0, 1, 2, 3, 4, 5, 6, 7);
    }
    // Each 128-bit half now holds a 4 x 4 block; transpose both halves.
#pragma GCC unroll 2
    for (int b = 0; b < 8; b += 4) {
      const V a0 = __builtin_shufflevector(q[b], q[b + 1], 0, 8, 1, 9, 4, 12, 5, 13);
      const V a1 = __builtin_shufflevector(q[b], q[b + 1], 2, 10, 3, 11, 6, 14, 7, 15);
      const V a2 = __builtin_shufflevector(q[b + 2], q[b + 3], 0, 8, 1, 9, 4, 12, 5, 13);
      const V a3 = __builtin_shufflevector(q[b + 2], q[b + 3], 2, 10, 3, 11, 6, 14, 7, 15);
      r[b] = __builtin_shufflevector(a0, a2, 0, 1, 8, 9, 4, 5, 12, 13);
      r[b + 1] = __builtin_shufflevector(a0, a2, 2, 3, 10, 11, 6, 7, 14, 15);
      r[b + 2] = __builtin_shufflevector(a1, a3, 0, 1, 8, 9, 4, 5, 12, 13);
      r[b + 3] = __builtin_shufflevector(a1, a3, 2, 3, 10, 11, 6, 7, 14, 15);
    }
  } else {
#pragma GCC unroll 8
    for (int l = 0; l < L; ++l) std::memcpy(&r[l], rows[l] + g, sizeof(V));
    transpose_block<T>(r);
  }
}

// The edge-lane dot: store(t, <x, y_{cols[t]}>) for t in [e0, e1), where x
// and every row of y hold k elements. Groups of 8 edges fill 8 / lanes
// accumulator vectors; each g block of `lanes` columns loads one vector per
// edge and transposes the block into lanes, and the last k % lanes columns are
// gathered lane by lane.
template <typename T, int Bytes, typename Store>
__attribute__((always_inline)) inline void edge_dots_body(const T* x, const T* y,
                                                          index_t k,
                                                          const index_t* cols,
                                                          index_t e0, index_t e1,
                                                          Store& store) {
  typedef T V __attribute__((vector_size(Bytes)));
  constexpr int kLanes = Bytes / sizeof(T);
  constexpr int kVecs = kSparseEdgeGroup / kLanes;
  for (index_t t0 = e0; t0 < e1; t0 += kSparseEdgeGroup) {
    const int n = static_cast<int>(std::min<index_t>(kSparseEdgeGroup, e1 - t0));
    const T* yr[kSparseEdgeGroup];
    for (int l = 0; l < kSparseEdgeGroup; ++l) yr[l] = y + cols[t0 + (l < n ? l : 0)] * k;
    V acc[kVecs];
    for (int v = 0; v < kVecs; ++v) acc[v] = V{};
    const index_t k_vec = k - k % kLanes;
    for (index_t g = 0; g < k_vec; g += kLanes) {
      for (int v = 0; v < kVecs; ++v) {
        V r[kLanes];
        load_transposed<T>(yr + v * kLanes, g, r);
#pragma GCC unroll 8
        for (int c = 0; c < kLanes; ++c) acc[v] = acc[v] + x[g + c] * r[c];
      }
    }
    for (index_t g = k_vec; g < k; ++g) {
      for (int v = 0; v < kVecs; ++v) {
        V col;
        for (int l = 0; l < kLanes; ++l) col[l] = yr[v * kLanes + l][g];
        acc[v] = acc[v] + x[g] * col;
      }
    }
    T dots[kSparseEdgeGroup];
    std::memcpy(dots, acc, sizeof dots);
    for (int l = 0; l < n; ++l) store(t0 + l, dots[l]);
  }
}

// NV vectors of the output row, from `out` (both already offset to the
// pass's first column; h's rows keep stride k), held across all edges.
template <typename T, int Bytes, int NV, typename Weight>
__attribute__((always_inline)) inline void aggregate_pass(const T* h, index_t k,
                                                          const index_t* cols,
                                                          index_t e0, index_t e1,
                                                          Weight& weight, T* out,
                                                          bool accumulate) {
  typedef T V __attribute__((vector_size(Bytes)));
  constexpr index_t kLanes = Bytes / sizeof(T);
  V acc[NV];
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    if (accumulate) {
      std::memcpy(&acc[v], out + v * kLanes, Bytes);
    } else {
      acc[v] = V{};
    }
  }
  for (index_t t = e0; t < e1; ++t) {
    const T w = weight(t);
    const T* ht = h + cols[t] * k;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      V hv;
      std::memcpy(&hv, ht + v * kLanes, Bytes);
      acc[v] = acc[v] + w * hv;
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) std::memcpy(out + v * kLanes, &acc[v], Bytes);
}

// The row-register aggregate: out[g] = (accumulate ? out[g] : 0) + sum over
// t in [e0, e1), in order, of weight(t) * h[cols[t] * k + g], for g < k.
// Passes of 8, 4, 2 and 1 vectors cover the row, then the last k % lanes
// columns run the same chains in scalar code. An empty range still writes
// the row.
template <typename T, int Bytes, typename Weight>
__attribute__((always_inline)) inline void aggregate_body(const T* h, index_t k,
                                                          const index_t* cols,
                                                          index_t e0, index_t e1,
                                                          Weight& weight, T* out,
                                                          bool accumulate) {
  constexpr index_t kLanes = Bytes / sizeof(T);
  index_t j = 0;
  for (; j + kSparseRowVectors * kLanes <= k; j += kSparseRowVectors * kLanes) {
    aggregate_pass<T, Bytes, kSparseRowVectors>(h + j, k, cols, e0, e1, weight, out + j,
                                                accumulate);
  }
  if (j + 4 * kLanes <= k) {
    aggregate_pass<T, Bytes, 4>(h + j, k, cols, e0, e1, weight, out + j, accumulate);
    j += 4 * kLanes;
  }
  if (j + 2 * kLanes <= k) {
    aggregate_pass<T, Bytes, 2>(h + j, k, cols, e0, e1, weight, out + j, accumulate);
    j += 2 * kLanes;
  }
  if (j + kLanes <= k) {
    aggregate_pass<T, Bytes, 1>(h + j, k, cols, e0, e1, weight, out + j, accumulate);
    j += kLanes;
  }
  if (j == k) return;
  const index_t rest = k - j;
  T acc[kLanes];
  for (index_t c = 0; c < rest; ++c) acc[c] = accumulate ? out[j + c] : T(0);
  for (index_t t = e0; t < e1; ++t) {
    const T w = weight(t);
    const T* ht = h + cols[t] * k + j;
    for (index_t c = 0; c < rest; ++c) acc[c] += w * ht[c];
  }
  for (index_t c = 0; c < rest; ++c) out[j + c] = acc[c];
}

// The portable twin: 16-byte vectors at the build's baseline ISA.
struct SparsePortable {
  template <typename T, typename Store>
  static void edge_dots(const T* x, const T* y, index_t k, const index_t* cols,
                        index_t e0, index_t e1, Store store) {
    edge_dots_body<T, 16>(x, y, k, cols, e0, e1, store);
  }
  template <typename T, typename Weight>
  static void aggregate(const T* h, index_t k, const index_t* cols, index_t e0,
                        index_t e1, Weight weight, T* out, bool accumulate) {
    aggregate_body<T, 16>(h, k, cols, e0, e1, weight, out, accumulate);
  }
};

#if AGNN_AVX2_TWIN
#pragma GCC push_options
#pragma GCC target("avx2")
// The AVX2 twin: 32-byte vectors. Call it only where have_avx2() holds.
struct SparseAvx2 {
  template <typename T, typename Store>
  static void edge_dots(const T* x, const T* y, index_t k, const index_t* cols,
                        index_t e0, index_t e1, Store store) {
    edge_dots_body<T, 32>(x, y, k, cols, e0, e1, store);
  }
  template <typename T, typename Weight>
  static void aggregate(const T* h, index_t k, const index_t* cols, index_t e0,
                        index_t e1, Weight weight, T* out, bool accumulate) {
    aggregate_body<T, 32>(h, k, cols, e0, e1, weight, out, accumulate);
  }
};
#pragma GCC pop_options
#endif

// Runs body(twin) with the twin have_avx2() picks. A kernel calls this once
// and runs its whole row loop inside body, so the pick is made once per
// kernel call, never per row or per edge.
template <typename Body>
void with_sparse_core(Body&& body) {
#if AGNN_AVX2_TWIN
  if (have_avx2()) {
    body(SparseAvx2{});
    return;
  }
#endif
  body(SparsePortable{});
}

}  // namespace agnn::detail
