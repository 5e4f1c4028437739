// HDR-style log-bucketed latency/size histogram.
//
// The obs/ layer so far reports only counters and gauges — totals and
// last-writes. The serving work needs *distributions*: p50 tells you what
// a user sees, p999 tells you what the slowest shard sees, and neither is
// recoverable from a sum.
//
// Bucketing (the HdrHistogram log-linear scheme, fixed at compile time):
//
//   * values 0 .. 2^kUnitBits-1 land in unit-width buckets (exact);
//   * every octave [2^p, 2^(p+1)) above that is split into
//     kSubBuckets = 2^(kUnitBits-1) equal-width sub-buckets,
//
// so the relative bucket width — and therefore the worst-case quantile
// error — is bounded by 1/kSubBuckets (3.125% at the default 6/32), while
// the whole uint64 range fits in a fixed 1.9k-bucket array. No allocation
// ever happens after construction.
//
// Concurrency contract: `record` is wait-free (one relaxed fetch_add per
// bucket/count/sum plus two bounded CAS loops for min/max) and may be
// called from any number of threads. Readers (`quantile`, `merge_from`,
// dumps) see a *consistent-enough* snapshot: counts never go backwards and
// a concurrent read can at worst miss in-flight records — the same relaxed
// contract as comm::VolumeStats::snapshot(), documented there. Bitwise
// determinism of merges holds because everything is integer arithmetic:
// merge is associative and commutative exactly (tests/test_histogram.cpp
// proves it bucket-by-bucket).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "tensor/common.hpp"

namespace agnn::obs {

class Histogram {
 public:
  // 64 unit buckets, then 32 sub-buckets per octave: <= 3.125% relative
  // quantile error, 1920 buckets, ~15 KiB per histogram.
  static constexpr std::uint32_t kUnitBits = 6;
  static constexpr std::uint64_t kUnitBuckets = 1ull << kUnitBits;
  static constexpr std::uint64_t kSubBuckets = kUnitBuckets / 2;
  static constexpr std::size_t kBucketCount =
      kUnitBuckets + (64 - kUnitBits) * kSubBuckets;

  Histogram() = default;

  // Non-copyable (atomics); merge_from is the aggregation primitive.
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // ---- recording (hot path) --------------------------------------------
  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    atomic_min(min_, value);
    atomic_max(max_, value);
  }

  // ---- bucket math (static, so tests can probe it directly) ------------
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kUnitBuckets) return static_cast<std::size_t>(v);
    // v is in octave p = floor(log2 v) >= kUnitBits; shift so the top
    // (kUnitBits-1)+1 bits remain -> sub-bucket in [kSubBuckets, 2*kSub).
    const std::uint32_t p = 63u - static_cast<std::uint32_t>(
                                      std::countl_zero(v));
    const std::uint32_t shift = p - (kUnitBits - 1);
    const std::uint64_t sub = (v >> shift) - kSubBuckets;
    return static_cast<std::size_t>(kUnitBuckets +
                                    (p - kUnitBits) * kSubBuckets + sub);
  }

  // Highest value mapping to `idx` (the "highest equivalent value"):
  // quantile estimates are upper bounds, never under-reports — the right
  // bias for latency SLOs.
  static std::uint64_t bucket_upper(std::size_t idx) {
    if (idx < kUnitBuckets) return static_cast<std::uint64_t>(idx);
    const std::uint64_t rel = idx - kUnitBuckets;
    const std::uint32_t octave =
        kUnitBits + static_cast<std::uint32_t>(rel / kSubBuckets);
    const std::uint64_t sub = rel % kSubBuckets;
    const std::uint32_t shift = octave - (kUnitBits - 1);
    const std::uint64_t lower = (kSubBuckets + sub) << shift;
    return lower + ((1ull << shift) - 1);
  }

  // ---- reading ----------------------------------------------------------
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return count() == 0 ? 0 : m;
  }
  std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  // Value at quantile q in [0,1]: the upper edge of the bucket holding the
  // ceil(q*count)-th smallest recorded value. Empty histogram -> 0.
  std::uint64_t quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
    if (target == 0) target = 1;
    if (target > n) target = n;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cum += buckets_[i].load(std::memory_order_relaxed);
      if (cum >= target) {
        // Never report above the recorded max (the last bucket's upper
        // edge can overshoot it by the bucket width).
        return std::min(bucket_upper(i), max());
      }
    }
    return max();
  }

  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p90() const { return quantile(0.90); }
  std::uint64_t p99() const { return quantile(0.99); }
  std::uint64_t p999() const { return quantile(0.999); }

  std::uint64_t bucket_count(std::size_t idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

  // ---- merge / reset ----------------------------------------------------
  // Integer-exact: merging A into B then C gives bitwise the same buckets
  // as merging C then A (commutative, associative). Safe against concurrent
  // recorders on either side (per-bucket relaxed adds).
  void merge_from(const Histogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    if (other.count() != 0) {
      atomic_min(min_, other.min_.load(std::memory_order_relaxed));
      atomic_max(max_, other.max());
    }
  }

  // Test-only (like MetricsRegistry::reset): zero everything, keeping the
  // object (and any cached references to it) valid. Callers must quiesce
  // recorders first.
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  // ---- dumps ------------------------------------------------------------
  // One-line summary used by MetricsRegistry::dump_text.
  void summary_text(std::ostream& os) const {
    os << "count=" << count() << " sum=" << sum() << " min=" << min()
       << " p50=" << p50() << " p90=" << p90() << " p99=" << p99()
       << " p999=" << p999() << " max=" << max();
  }

  // JSON object used by MetricsRegistry::dump_json.
  void summary_json(std::ostream& os) const {
    os << "{\"count\":" << count() << ",\"sum\":" << sum()
       << ",\"min\":" << min() << ",\"p50\":" << p50() << ",\"p90\":" << p90()
       << ",\"p99\":" << p99() << ",\"p999\":" << p999()
       << ",\"max\":" << max() << "}";
  }

 private:
  static void atomic_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace agnn::obs
