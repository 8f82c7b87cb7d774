// Strict command-line parsing for radio_bench and the example binaries.
// A token starting with "--" is a flag: `--name=value`, `--name value`, or
// one of the value-less switches the caller declares. Every other token is
// a positional. Unknown flags and unread positionals are errors so typos
// surface.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace radio {

class CliArgs {
 public:
  /// Parses argv[1..argc). `switches` names the value-less flags (without
  /// the leading "--"); any other flag needs a value, so a bare `--out`
  /// throws std::runtime_error rather than reading as "true". Typed getters
  /// parse strictly (util/parse.hpp): a malformed or out-of-range value
  /// throws std::runtime_error whose message names the flag and the
  /// offending text, so mains print one diagnostic line and exit non-zero.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<std::string_view> switches = {});

  bool has(const std::string& name) const;

  /// The non-flag tokens, in command-line order. Reading them is what lets
  /// validate() accept them.
  const std::vector<std::string>& positionals() const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min_value = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max_value = std::numeric_limits<std::int64_t>::max()) const;
  std::uint64_t get_uint(const std::string& name, std::uint64_t fallback) const;
  double get_double(
      const std::string& name, double fallback,
      double min_value = std::numeric_limits<double>::lowest(),
      double max_value = std::numeric_limits<double>::max()) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Call after all get_* calls: errors out if the user passed a flag the
  /// program never consulted, or positionals it never read.
  void validate() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  mutable std::map<std::string, bool> consumed_;
  mutable bool positionals_read_ = false;
};

}  // namespace radio
