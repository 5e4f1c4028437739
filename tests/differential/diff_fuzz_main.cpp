// diff_fuzz: the differential-fuzzing driver.
//
// Runs seeded adversarial scenarios through the check battery and reports
// every divergence with a one-line replay command. Seeds are consecutive
// from --start-seed, so a CI run is fully described by (suite, start, count)
// and any failure reproduces with `diff_fuzz --suite <s> --seed <N>`.
//
//   diff_fuzz                                   # default budgets, all suites
//   diff_fuzz --suite kernels --count 500       # bigger kernel sweep
//   diff_fuzz --suite engines --seed 1234       # replay one engine scenario
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "differential/checks.hpp"

namespace {

using agnn::diffuzz::Failures;
using agnn::diffuzz::Purpose;
using agnn::diffuzz::Scenario;

struct SuiteSpec {
  const char* name;
  Purpose purpose;
  void (*check)(const Scenario&, Failures&);
  std::uint64_t default_count;
};

constexpr SuiteSpec kSuites[] = {
    {"kernels", Purpose::kKernels, agnn::diffuzz::check_kernels, 200},
    {"outparam", Purpose::kKernels, agnn::diffuzz::check_outparam, 200},
    {"engines", Purpose::kEngines, agnn::diffuzz::check_engines, 40},
    {"faults", Purpose::kEngines, agnn::diffuzz::check_fault_recovery, 15},
    {"serving", Purpose::kEngines, agnn::diffuzz::check_serving, 60},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--suite kernels|outparam|engines|faults|serving|all] [--seed N]\n"
               "          [--count N] [--start-seed N] [--verbose]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite = "all";
  std::uint64_t start_seed = 1;
  std::uint64_t count = 0;        // 0 = per-suite default
  std::uint64_t single_seed = 0;
  bool have_single_seed = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      suite = next();
    } else if (arg == "--seed") {
      single_seed = std::strtoull(next(), nullptr, 10);
      have_single_seed = true;
    } else if (arg == "--count") {
      count = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--start-seed") {
      start_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  bool suite_matched = false;
  std::uint64_t total_failures = 0;
  for (const auto& spec : kSuites) {
    if (suite != "all" && suite != spec.name) continue;
    suite_matched = true;

    const std::uint64_t n = have_single_seed ? 1 : (count > 0 ? count : spec.default_count);
    const std::uint64_t first = have_single_seed ? single_seed : start_seed;
    std::uint64_t suite_failures = 0;
    for (std::uint64_t s = 0; s < n; ++s) {
      const std::uint64_t seed = first + s;
      const Scenario sc = agnn::diffuzz::make_scenario(seed, spec.purpose);
      if (verbose || have_single_seed) {
        std::printf("suite=%s seed=%llu %s\n", spec.name,
                    static_cast<unsigned long long>(seed), sc.describe().c_str());
      }
      Failures failures;
      spec.check(sc, failures);
      for (const auto& f : failures) {
        std::printf("DIVERGENCE suite=%s seed=%llu [%s] check=%s: %s\n",
                    spec.name, static_cast<unsigned long long>(seed),
                    sc.describe().c_str(), f.check.c_str(), f.detail.c_str());
        std::printf("  replay: diff_fuzz --suite %s --seed %llu\n", spec.name,
                    static_cast<unsigned long long>(seed));
      }
      suite_failures += failures.size();
    }
    std::printf("suite %-8s: %llu seeds, %llu divergence%s\n", spec.name,
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(suite_failures),
                suite_failures == 1 ? "" : "s");
    total_failures += suite_failures;
  }

  if (!suite_matched) {
    std::fprintf(stderr, "unknown suite: %s\n", suite.c_str());
    return usage(argv[0]);
  }
  return total_failures == 0 ? 0 : 1;
}
