#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "util/assert.hpp"

namespace radio {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  // JSON has no Inf/NaN; null is the conventional lossy stand-in.
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

}  // namespace

void Json::push_back(Json value) {
  RADIO_EXPECTS(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

Json& Json::set(std::string key, Json value) {
  RADIO_EXPECTS(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kUint: out += std::to_string(uint_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) { out += "[]"; break; }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        if (pretty) newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) { out += "{}"; break; }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        if (pretty) newline_pad(depth + 1);
        append_escaped(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace radio
