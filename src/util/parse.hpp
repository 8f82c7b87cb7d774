// Strict parsing of untrusted tokens: every numeric and boolean CLI flag
// (util/cli.hpp) funnels through these four functions.
//
// Contract: a parse either yields a value or a ready-to-print one-line
// diagnostic naming the *source* of the bad token (a flag name) and the
// offending text itself — never a silent clamp, a partial read, or an
// uncaught exception. Whole-token match is required ("12kb" is an error,
// not 12), overflow is an error (not a wrap), and doubles must be finite
// ("nan"/"inf"/"1e999" are rejected).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace radio {

/// Expected-style parse result: either a value or a diagnostic, never both.
/// (std::expected is C++23; this is the minimal C++20 shape the boundary
/// needs.)
template <typename T>
class Parsed {
 public:
  static Parsed ok(T value) {
    Parsed p;
    p.value_ = std::move(value);
    return p;
  }
  static Parsed fail(std::string diagnostic) {
    Parsed p;
    p.error_ = std::move(diagnostic);
    return p;
  }

  explicit operator bool() const noexcept { return value_.has_value(); }
  const T& operator*() const { return *value_; }

  /// The diagnostic; empty for successful parses.
  const std::string& error() const noexcept { return error_; }

  /// Value, or throws std::runtime_error carrying the diagnostic — the
  /// one-liner for callers whose error path is already exception-shaped
  /// (CliArgs).
  const T& value_or_throw() const;

 private:
  Parsed() = default;
  std::optional<T> value_;
  std::string error_;
};

/// Unsigned 64-bit decimal integer. `source` names where the token came from
/// and leads the diagnostic, e.g. parse_u64("abc", "--seed") →
/// "--seed: expected an unsigned integer, got 'abc'".
Parsed<std::uint64_t> parse_u64(
    std::string_view text, std::string_view source,
    std::uint64_t min_value = 0,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

/// Signed 64-bit decimal integer (optional leading '-').
Parsed<std::int64_t> parse_int(
    std::string_view text, std::string_view source,
    std::int64_t min_value = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max_value = std::numeric_limits<std::int64_t>::max());

/// Finite double (decimal or scientific). NaN, infinities, and overflowing
/// exponents are diagnostics, not values.
Parsed<double> parse_double(
    std::string_view text, std::string_view source,
    double min_value = std::numeric_limits<double>::lowest(),
    double max_value = std::numeric_limits<double>::max());

/// Boolean token: true/1/yes/on and false/0/no/off (lowercase). Anything
/// else is a diagnostic — "maybe" does not mean false.
Parsed<bool> parse_bool(std::string_view text, std::string_view source);

}  // namespace radio
