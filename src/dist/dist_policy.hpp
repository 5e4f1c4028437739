// The distribution-policy family (Section 6.3 generalized).
//
// The paper ships only the A-stationary 1.5D scheme on a square grid; the
// communication-avoiding family it belongs to (Tripathy, Yelick & Buluc)
// spans four members, all A-stationary, differing in how the process set
// p is factored over the adjacency blocks and how much the dense features
// are replicated:
//
//   1D    p x 1 row blocks; every layer allgathers the full H        O(n k)
//   1.5D  sqrt(p) x sqrt(p); features replicated down grid columns   O(n k / sqrt(p))
//   2D    r x c SUMMA-style; features owned (not replicated), panel
//         broadcasts pipelined against local SpMM                    O(n k (1/r + 1/c))
//   3D    r x c x d; adjacency columns depth-split, features
//         replicated d-fold, panel volume divided by d               O(n k (1/r + 1/(c d)))
//
// `GridShape` names one member plus its factorization; `grid_for` routes a
// rank count to a valid shape (or throws a structured error naming which
// distributions accept that count); `AGNN_DIST` / `AGNN_DIST_DEPTH` select
// the family member from the environment and throw on a malformed value.
#pragma once

#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/process_grid.hpp"
#include "tensor/env.hpp"

namespace agnn::dist {

enum class DistPolicy : int { k1D = 0, k1_5D, k2D, k3D };

inline const char* to_string(DistPolicy p) {
  switch (p) {
    case DistPolicy::k1D: return "1d";
    case DistPolicy::k1_5D: return "1.5d";
    case DistPolicy::k2D: return "2d";
    case DistPolicy::k3D: return "3d";
  }
  return "?";
}

inline std::optional<DistPolicy> parse_dist_policy(std::string_view s) {
  if (s == "1d" || s == "1D") return DistPolicy::k1D;
  if (s == "1.5d" || s == "1.5D" || s == "15d") return DistPolicy::k1_5D;
  if (s == "2d" || s == "2D" || s == "summa") return DistPolicy::k2D;
  if (s == "3d" || s == "3D") return DistPolicy::k3D;
  return std::nullopt;
}

// One concrete member of the family: p = rows * cols * depth ranks.
//   1D    rows = p, cols = depth = 1
//   1.5D  rows = cols = sqrt(p), depth = 1   (square grid)
//   2D    rows x cols, depth = 1
//   3D    rows x cols x depth, depth > 1 allowed
struct GridShape {
  DistPolicy policy = DistPolicy::k1_5D;
  int rows = 1;
  int cols = 1;
  int depth = 1;

  int size() const { return rows * cols * depth; }

  std::string describe() const {
    return std::string(to_string(policy)) + ":" + std::to_string(rows) + "x" +
           std::to_string(cols) + "x" + std::to_string(depth);
  }
};

// Most-balanced factorization r * c = p with r >= c (r is the SUMMA stage
// count; more stages means finer pipelining, so the larger factor goes to
// the row side). Always succeeds: primes get p x 1.
inline std::pair<int, int> balanced_factors(int p) {
  AGNN_ASSERT(p >= 1, "balanced_factors: need p >= 1");
  for (int c = static_cast<int>(std::sqrt(static_cast<double>(p))); c >= 1; --c) {
    if (p % c == 0) return {p / c, c};
  }
  return {p, 1};
}

inline bool is_perfect_square(int p) {
  const int s = static_cast<int>(std::sqrt(static_cast<double>(p)) + 0.5);
  return s * s == p;
}

// Which family members accept a given rank count. 1D/2D/3D accept any p
// (2D degenerates to r x 1 for primes; 3D picks the smallest prime factor
// as depth); only the square-grid 1.5D scheme is restricted.
inline bool policy_accepts(DistPolicy policy, int p) {
  if (p < 1) return false;
  return policy != DistPolicy::k1_5D || is_perfect_square(p);
}

inline int smallest_prime_factor(int p) {
  for (int f = 2; f * f <= p; ++f) {
    if (p % f == 0) return f;
  }
  return p;
}

// Route (policy, rank count) to a concrete shape. `depth_hint` (3D only)
// overrides the replication depth; it must divide p. Throws std::logic_error
// naming the distributions that do accept `p` when the request is invalid —
// the structured error demanded by the side_for relaxation.
inline GridShape grid_for(DistPolicy policy, int p, int depth_hint = 0) {
  AGNN_ASSERT(p >= 1, "grid_for: need at least one rank");
  GridShape g;
  g.policy = policy;
  switch (policy) {
    case DistPolicy::k1D:
      g.rows = p;
      return g;
    case DistPolicy::k1_5D: {
      if (!is_perfect_square(p)) {
        throw std::logic_error(
            "1.5d distribution needs a perfect-square rank count, got p=" +
            std::to_string(p) +
            "; valid alternatives for this p: AGNN_DIST=1d (any p), "
            "AGNN_DIST=2d (any p, r x c grid), AGNN_DIST=3d (any p, "
            "depth-replicated)");
      }
      const int q = static_cast<int>(std::sqrt(static_cast<double>(p)) + 0.5);
      g.rows = g.cols = q;
      return g;
    }
    case DistPolicy::k2D: {
      const auto [r, c] = balanced_factors(p);
      g.rows = r;
      g.cols = c;
      return g;
    }
    case DistPolicy::k3D: {
      int d = depth_hint;
      if (d <= 0) d = p > 1 ? smallest_prime_factor(p) : 1;
      if (d < 1 || p % d != 0) {
        throw std::logic_error("3d distribution: depth " + std::to_string(d) +
                               " does not divide p=" + std::to_string(p));
      }
      const auto [r, c] = balanced_factors(p / d);
      g.rows = r;
      g.cols = c;
      g.depth = d;
      return g;
    }
  }
  throw std::logic_error("grid_for: unknown distribution policy");
}

// The default member for a rank count: the paper's 1.5D scheme whenever the
// count is square, otherwise the 2D SUMMA grid (which accepts any p).
inline DistPolicy default_policy_for(int p) {
  return is_perfect_square(p) ? DistPolicy::k1_5D : DistPolicy::k2D;
}

// AGNN_DIST: "1d" | "1.5d" | "2d" | "3d" | "auto" (or unset). Unknown values
// throw (a typo silently falling back to a different distribution would make
// every downstream measurement lie).
inline DistPolicy policy_from_env(int p) {
  const char* v = std::getenv("AGNN_DIST");
  if (v == nullptr || v[0] == '\0' || std::string_view(v) == "auto") {
    return default_policy_for(p);
  }
  const auto parsed = parse_dist_policy(v);
  if (!parsed.has_value()) {
    throw std::logic_error(std::string("AGNN_DIST: unknown distribution '") + v +
                           "' (want 1d, 1.5d, 2d, 3d, or auto)");
  }
  return *parsed;
}

// AGNN_DIST_DEPTH: the 3D depth, parsed by positive_int_from_env. Unset or
// empty means 0, which lets grid_for pick the depth.
inline int depth_hint_from_env() { return positive_int_from_env("AGNN_DIST_DEPTH"); }

inline GridShape grid_from_env(int p) {
  return grid_for(policy_from_env(p), p, depth_hint_from_env());
}

}  // namespace agnn::dist
