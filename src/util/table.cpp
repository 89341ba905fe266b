#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace odns::util {

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  double parsed = 0.0;
  auto first = s.data();
  auto last = s.data() + s.size();
  if (*first == '+' || *first == '-') ++first;
  auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc{}) return false;
  // Allow trailing unit-ish suffixes like '%' but nothing longer.
  return last - ptr <= 1;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: row width != header width");
  }
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += "| ";
      const bool right = looks_numeric(row[c]);
      const std::size_t pad = widths[c] - row[c].size();
      if (right) out.append(pad, ' ');
      out += row[c];
      if (!right) out.append(pad, ' ');
      out += ' ';
    }
    out += "|\n";
  };
  std::string out;
  emit_row(headers_, out);
  out += '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(widths[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ',';
    out += escape(headers_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      out += escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::fmt_count(std::uint64_t v) { return std::to_string(v); }

}  // namespace odns::util
