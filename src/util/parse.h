// Checked number parsing for command-line flags and text formats.
//
// std::atoi/strtoull and stream extraction accept leading junk, stop at
// trailing junk, and either return 0 or saturate on overflow, so `--ranks x`
// or `seed 42abc` would silently run a different configuration. These
// parsers take the whole token or nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace compass::util {

/// `text` as a base-10 integer: one or more ASCII digits and nothing else
/// (no sign, no whitespace), with a value of at most 2^64-1. Anything else
/// is nullopt.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// `text` as a finite real number: an optional '-', decimal digits with an
/// optional fraction and exponent (std::from_chars' general format), and
/// nothing else. No '+', whitespace, hex, inf or nan; a value that overflows
/// a double is nullopt too.
std::optional<double> parse_finite_double(std::string_view text);

/// parse_u64 for the value of a command-line flag, also bounded to
/// [min_value, max_value]. On failure prints "<prog>: <flag> ..." naming the
/// problem to stderr and returns nullopt.
std::optional<std::uint64_t> parse_u64_flag(std::string_view prog,
                                            std::string_view flag,
                                            std::string_view text,
                                            std::uint64_t min_value,
                                            std::uint64_t max_value);

}  // namespace compass::util
