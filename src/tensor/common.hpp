// Common utilities shared by the tensor-algebra layer.
//
// The whole tensor layer is header-only and templated on the scalar type,
// so both float (the paper's evaluation precision) and double (used by the
// finite-difference gradient checks) instantiations come from the same code.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

// The vector cores are written once and built twice: a portable twin at the
// build's baseline ISA and, for GCC on x86-64 only, an AVX2 twin inside a
// `#pragma GCC target("avx2")` region.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define AGNN_AVX2_TWIN 1
#else
#define AGNN_AVX2_TWIN 0
#endif

namespace agnn {

using index_t = std::int64_t;

// AGNN_ASSERT: checked in all build types. Tensor-shape mismatches are
// programming errors that must never be silently optimized away; the cost of
// the branch is negligible next to the kernels it guards.
#define AGNN_ASSERT(cond, msg)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::agnn::detail::assert_fail(#cond, (msg), __FILE__, __LINE__);       \
    }                                                                      \
  } while (false)

namespace detail {

[[noreturn]] inline void assert_fail(const char* cond, const std::string& msg,
                                     const char* file, int line) {
  std::string what = std::string("AGNN assertion failed: ") + cond + " (" +
                     msg + ") at " + file + ":" + std::to_string(line);
  throw std::logic_error(what);
}

// Bytes between a seekable stream's read position and its end. Decoders
// check each count read from a file against this before allocating from it,
// so a corrupt or hostile header cannot drive an allocation.
inline std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  AGNN_ASSERT(here != std::istream::pos_type(-1) && end >= here && in.good(),
              "bytes_left: stream is not seekable");
  return static_cast<std::uint64_t>(end - here);
}

// Per-OS-thread reusable scratch, grown to the high-water mark on first use
// and reused afterwards, so the steady state allocates nothing. The
// Workspace pool cannot serve it: core already links against tensor, and the
// pool belongs to the driving rank thread while this buffer lives per OpenMP
// worker. One buffer per element type and tag type: a caller must not hold
// the pointer across another call with the same pair that may grow it. A
// call site that needs a buffer of its own passes its own tag.
template <typename U, typename Tag = void>
inline U* thread_scratch(std::size_t n) {
  thread_local std::vector<U> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// True when this build has the AVX2 twins of the vector cores
// (gemm_core.hpp, sparse_core.hpp) and the CPU runs AVX2. Both cores share
// this one pick, checked once per process.
inline bool have_avx2() {
#if AGNN_AVX2_TWIN
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return ok;
#else
  return false;
#endif
}

}  // namespace detail

// A small, fast, reproducible PRNG (xoshiro256**). Used everywhere instead
// of std::mt19937_64: it is an order of magnitude faster, which matters for
// the in-memory graph generators, and its output is identical across
// platforms so tests and benchmarks are deterministic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& s : s_) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      s = x ^ (x >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [0, bound). `bound` must be positive (modulo by zero is UB).
  std::uint64_t next_bounded(std::uint64_t bound) {
    AGNN_ASSERT(bound > 0, "next_bounded: bound must be positive");
    // Lemire's nearly-divisionless method is overkill here; modulo bias is
    // below 2^-40 for every bound used in this project.
    return next_u64() % bound;
  }

  // Uniform in [lo, hi).
  double next_uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace agnn
