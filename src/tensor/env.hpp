// Strict parsing of the integer-valued run-time environment variables.
//
// A typo in a knob must not silently select different behavior, so a value
// that is not exactly a decimal integer in [1, INT_MAX] throws, before any
// work starts, naming the variable.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace agnn {

// The value of environment variable `name` as a decimal integer in
// [1, INT_MAX]. Unset or empty returns 0, which callers read as "use the
// default"; anything else ("2x", " 2", "+2", "2.0", "0", out of range)
// throws std::logic_error naming `name`.
inline int positive_int_from_env(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return 0;
  const char* end = v + std::strlen(v);
  int x = 0;
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end || x < 1) {
    throw std::logic_error(std::string(name) + ": invalid value '" + v +
                           "' (want an integer in [1, " +
                           std::to_string(std::numeric_limits<int>::max()) +
                           "], or unset for the default)");
  }
  return x;
}

}  // namespace agnn
