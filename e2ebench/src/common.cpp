#include "common.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>

#include "serve/request.hpp"

namespace e2ebench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return agnn::serve::mix64(agnn::serve::mix64(seed) ^ tag);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

// Shortest text that reads back as the same double; non-finite values (a
// latency over every limit) print as the largest finite double so the line
// stays valid JSON.
std::string number(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1.7976931348623157e308 : 1.7976931348623157e308;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int emit(const Args& args, const Report& report,
         const std::map<std::string, std::string>& context) {
  std::printf("# e2ebench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const auto& [k, v] : context) std::printf("# %s=%s\n", k.c_str(), v.c_str());
  for (const auto& [name, m] : report.metrics()) {
    std::printf("%-28s %14.6g %-6s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    if (m.timing && m.tail_q > 0) {
      std::printf("  median; p%g=%.6g", m.tail_q / 100.0, m.tail);
    } else if (m.timing) {
      std::printf("  median; too few samples for a tail percentile");
    }
    std::printf("\n");
  }
  std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
              report.fails.frac(),
              static_cast<unsigned long long>(report.fails.failed),
              static_cast<unsigned long long>(report.fails.attempted));
  std::printf("output checks: %s\n", report.checks_ok ? "passed" : "FAILED");

  std::string line = "{\"correct\": ";
  line += report.checks_ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.fails.attempted);
  line += ", \"failed\": " + std::to_string(report.fails.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    if (!first) line += ", ";
    first = false;
    line += quoted(name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.checks_ok ? 0 : 1;
}

}  // namespace e2ebench
