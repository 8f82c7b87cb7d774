#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace radio {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  RADIO_EXPECTS(!header_.empty());
}

Table& Table::row() {
  RADIO_EXPECTS(!header_.empty());
  RADIO_EXPECTS(rows_.empty() || rows_.back().size() == header_.size());
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  RADIO_EXPECTS(!rows_.empty());
  RADIO_EXPECTS(rows_.back().size() < header_.size());
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

const std::string& Table::at(std::size_t row, std::size_t col) const {
  RADIO_EXPECTS(row < rows_.size());
  RADIO_EXPECTS(col < rows_[row].size());
  return rows_[row][col];
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      out << "| " << v << std::string(width[c] - v.size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << "|" << std::string(width[c] + 2, '-');
  out << "|\n";
  for (const auto& r : rows_) emit_row(r);
  return out.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& v) {
    if (v.find_first_of(",\"\n") == std::string::npos) return v;
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << (c ? "," : "") << escape(header_[c]);
  out << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c)
      out << (c ? "," : "") << escape(r[c]);
    out << '\n';
  }
  return out.str();
}

void Table::print(const std::string& title) const {
  std::printf("\n=== %s ===\n%s", title.c_str(), to_string().c_str());
  std::fflush(stdout);
}

bool Table::write_csv(const std::string& path) const {
  // Closed before the check: a full disk surfaces only at the flush.
  std::ofstream file(path);
  file << to_csv();
  file.close();
  return !file.fail();
}

}  // namespace radio
