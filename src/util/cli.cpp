#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parse.hpp"

namespace radio {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> switches) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (std::find(switches.begin(), switches.end(), arg) !=
               switches.end()) {
      values_[arg] = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      throw std::runtime_error("--" + arg + " requires a value");
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

const std::vector<std::string>& CliArgs::positionals() const {
  positionals_read_ = true;
  return positionals_;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback,
                              std::int64_t min_value,
                              std::int64_t max_value) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int(it->second, "--" + name, min_value, max_value)
      .value_or_throw();
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_u64(it->second, "--" + name).value_or_throw();
}

double CliArgs::get_double(const std::string& name, double fallback,
                           double min_value, double max_value) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_double(it->second, "--" + name, min_value, max_value)
      .value_or_throw();
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_bool(it->second, "--" + name).value_or_throw();
}

void CliArgs::validate() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!consumed_.count(name))
      throw std::runtime_error("unknown flag: --" + name);
  }
  if (!positionals_read_ && !positionals_.empty())
    throw std::runtime_error("unexpected argument: " + positionals_.front());
}

}  // namespace radio
