#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>

namespace compass::util {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // v * 10 + digit <= kMax, checked without wrapping.
    if (v > (kMax - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

std::optional<double> parse_finite_double(std::string_view text) {
  const char* const end = text.data() + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64_flag(std::string_view prog,
                                            std::string_view flag,
                                            std::string_view text,
                                            std::uint64_t min_value,
                                            std::uint64_t max_value) {
  const std::optional<std::uint64_t> v = parse_u64(text);
  if (!v) {
    const bool digits_only =
        !text.empty() && text.find_first_not_of("0123456789") ==
                             std::string_view::npos;
    std::cerr << prog << ": " << flag << ' '
              << (digits_only ? "value is out of range (above 2^64-1), got '"
                              : "requires a non-negative integer, got '")
              << text << "'\n";
    return std::nullopt;
  }
  if (*v < min_value || *v > max_value) {
    std::cerr << prog << ": " << flag << " must be in [" << min_value << ", "
              << max_value << "], got " << *v << "\n";
    return std::nullopt;
  }
  return v;
}

}  // namespace compass::util
