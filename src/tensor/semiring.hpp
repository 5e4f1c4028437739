// Semirings for the generalized aggregation ⊕ of Section 4.3.
//
// A semiring here drives the generalized sparse-dense product A ⊕ H: for
// each output element (i, gamma),
//
//     out(i, gamma) = reduce_{j in N(i)}  combine(A(i,j), H(j, gamma))
//
// with `reduce` the additive monoid (op1) and `combine` the multiplicative
// monoid (op2). The paper's four aggregations are provided:
//
//   * sum      — the real semiring (R, +, *, 0, 1)
//   * min      — the tropical semiring (R ∪ {+inf}, min, +, +inf, 0);
//                off-diagonal zeros of A are conceptually +inf, which the
//                sparse kernel realizes by simply skipping non-edges
//   * max      — (R ∪ {-inf}, max, +, -inf, 0)
//   * average  — the tuple semiring over R^2 described in Section 4.3:
//                elements carry (weighted value, weight) and op2 merges two
//                tuples by computing their weighted average
//
// Each semiring defines an Accumulator type so that the tuple-valued average
// semiring and the scalar semirings share one SpMM kernel.
#pragma once

#include <algorithm>
#include <limits>

#include "tensor/common.hpp"

namespace agnn {

template <typename T>
struct PlusTimesSemiring {
  using Accum = T;
  static constexpr const char* name() { return "plus_times"; }
  static Accum identity() { return T(0); }
  // accumulate: acc = op1(acc, op2(a, h))
  static void accumulate(Accum& acc, T a, T h) { acc += a * h; }
  static T finalize(const Accum& acc) { return acc; }
};

template <typename T>
struct MinPlusSemiring {
  using Accum = T;
  static constexpr const char* name() { return "min_plus"; }
  static Accum identity() { return std::numeric_limits<T>::infinity(); }
  static void accumulate(Accum& acc, T a, T h) { acc = std::min(acc, a + h); }
  static T finalize(const Accum& acc) { return acc; }
};

template <typename T>
struct MaxPlusSemiring {
  using Accum = T;
  static constexpr const char* name() { return "max_plus"; }
  static Accum identity() { return -std::numeric_limits<T>::infinity(); }
  static void accumulate(Accum& acc, T a, T h) { acc = std::max(acc, a + h); }
  static T finalize(const Accum& acc) { return acc; }
};

// The average semiring of Section 4.3. The accumulator is the tuple
// (weighted mean so far, total weight so far); op2 merges two tuples by
// weighted average, which is associative and commutative over the weights.
// For a 0/1 adjacency matrix this computes the plain neighborhood mean.
template <typename T>
struct AverageSemiring {
  struct Accum {
    T mean = T(0);
    T weight = T(0);
  };
  static constexpr const char* name() { return "average"; }
  static Accum identity() { return {}; }
  static void accumulate(Accum& acc, T a, T h) {
    // Merge the tuple (h, a) — value h with weight a — into the accumulator.
    const T w = acc.weight + a;
    if (w != T(0)) acc.mean = (acc.mean * acc.weight + h * a) / w;
    acc.weight = w;
  }
  static T finalize(const Accum& acc) { return acc.mean; }
};

enum class Aggregation { kSum, kMin, kMax, kMean };

inline const char* to_string(Aggregation agg) {
  switch (agg) {
    case Aggregation::kSum: return "sum";
    case Aggregation::kMin: return "min";
    case Aggregation::kMax: return "max";
    case Aggregation::kMean: return "mean";
  }
  return "?";
}

}  // namespace agnn
