// The register-blocked GEMM core behind matmul, matmul_nt and matmul_tn
// (DESIGN.md §13).
//
// One block routine computes C = A B, or continues C += A B, over a block of
// C. It keeps a tile of 4 rows x two vectors of columns in registers across
// the whole reduction loop, so each output element is loaded and stored once
// per block instead of once per term.
//
// The bitwise contract. Every output element equals the plain loop
//
//   acc = 0 (or C's value when continuing);
//   for l in order: acc = acc + A(r, l) * B(l, j);
//
// bit for bit, because the core keeps three rules:
//   1. Vectorize across output columns only. Each element is one chain of
//      additions, and the vector lanes are independent chains.
//   2. Accumulate each element in l order, starting from zero.
//   3. Multiply, then add; never FMA. The AVX2 twin is compiled under
//      target("avx2"), which does not enable FMA, so the compiler cannot
//      contract a multiply and an add into one rounding.
// Row remainders run 1-row tiles, and columns left over after the last
// vector run the same chain in scalar code.
//
// The core is written once and built twice: a portable twin with 16-byte
// vectors at the build's baseline ISA and, for GCC on x86-64 only, an AVX2
// twin with 32-byte vectors inside a `#pragma GCC target("avx2")` region. The
// tile bodies are always_inline templates, so they compile under the target
// of the twin they inline into. gemm_kernel() picks the twin from
// have_avx2() (tensor/common.hpp), the per-process pick the sparse core
// shares. No global -m flag is needed, and there is no switch to force a
// twin.
#pragma once

#include <cstring>

#include "tensor/common.hpp"

namespace agnn::detail {

// One block of C = A B, or C += A B when `accumulate` is set:
//   A(r, l) = a[r * a_row + l * a_depth]
//   B(l, j) = b[l * ldb + j]
//   C(r, j) = c[r * ldc + j]
// for r < rows, j < cols, l < depth. The two A strides let one routine read
// A (a_row = k, a_depth = 1) and a transposed panel of A (a_row = 1,
// a_depth = k). C must not overlap A or B.
template <typename T>
struct GemmBlock {
  const T* a;
  index_t a_row, a_depth;
  const T* b;
  index_t ldb;
  T* c;
  index_t ldc;
  index_t rows, cols, depth;
  bool accumulate;
};

template <typename T>
using GemmKernel = void (*)(const GemmBlock<T>&);

// An R-row x NV-vector tile of C at (r0, j0), held in registers across all
// of l.
template <typename T, int Bytes, int R, int NV>
__attribute__((always_inline)) inline void gemm_tile(const GemmBlock<T>& g,
                                                     index_t r0, index_t j0) {
  typedef T V __attribute__((vector_size(Bytes)));
  constexpr index_t kLanes = Bytes / sizeof(T);
  V acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (g.accumulate) {
        std::memcpy(&acc[r][v], g.c + (r0 + r) * g.ldc + j0 + v * kLanes, Bytes);
      } else {
        acc[r][v] = V{};
      }
    }
  }
  for (index_t l = 0; l < g.depth; ++l) {
    const T* al = g.a + r0 * g.a_row + l * g.a_depth;
    const T* bl = g.b + l * g.ldb + j0;
    V bv[NV];
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], bl + v * kLanes, Bytes);
    for (int r = 0; r < R; ++r) {
      const T ar = al[r * g.a_row];
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + ar * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      std::memcpy(g.c + (r0 + r) * g.ldc + j0 + v * kLanes, &acc[r][v], Bytes);
    }
  }
}

// Rows [r0, r0 + R): vector tiles over the columns, then the last
// cols % kLanes columns one element at a time, in the same order.
template <typename T, int Bytes, int R>
__attribute__((always_inline)) inline void gemm_row_group(const GemmBlock<T>& g,
                                                          index_t r0) {
  constexpr index_t kLanes = Bytes / sizeof(T);
  index_t j = 0;
  for (; j + 2 * kLanes <= g.cols; j += 2 * kLanes) gemm_tile<T, Bytes, R, 2>(g, r0, j);
  if (j + kLanes <= g.cols) {
    gemm_tile<T, Bytes, R, 1>(g, r0, j);
    j += kLanes;
  }
  for (index_t r = r0; r < r0 + R; ++r) {
    for (index_t jj = j; jj < g.cols; ++jj) {
      T acc = g.accumulate ? g.c[r * g.ldc + jj] : T(0);
      const T* ap = g.a + r * g.a_row;
      const T* bp = g.b + jj;
      for (index_t l = 0; l < g.depth; ++l) acc += ap[l * g.a_depth] * bp[l * g.ldb];
      g.c[r * g.ldc + jj] = acc;
    }
  }
}

template <typename T, int Bytes>
__attribute__((always_inline)) inline void gemm_block_body(const GemmBlock<T>& g) {
  index_t r = 0;
  for (; r + 4 <= g.rows; r += 4) gemm_row_group<T, Bytes, 4>(g, r);
  for (; r < g.rows; ++r) gemm_row_group<T, Bytes, 1>(g, r);
}

// The portable twin: 16-byte vectors at the build's baseline ISA.
template <typename T>
void gemm_portable(const GemmBlock<T>& g) {
  gemm_block_body<T, 16>(g);
}

#if AGNN_AVX2_TWIN
#pragma GCC push_options
#pragma GCC target("avx2")
// The AVX2 twin: 32-byte vectors. Call it only where have_avx2() holds.
template <typename T>
void gemm_avx2(const GemmBlock<T>& g) {
  gemm_block_body<T, 32>(g);
}
#pragma GCC pop_options
#endif

template <typename T>
GemmKernel<T> gemm_kernel() {
#if AGNN_AVX2_TWIN
  if (have_avx2()) return &gemm_avx2<T>;
#endif
  return &gemm_portable<T>;
}

}  // namespace agnn::detail
