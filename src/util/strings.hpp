#pragma once
// String helpers shared across modules (ASCII-only on purpose: DNS
// names and country codes are ASCII domains).

#include <string>
#include <string_view>
#include <vector>

namespace odns::util {

/// Lowercases an ASCII letter; DNS comparisons are defined over ASCII
/// case folding (RFC 1035 §2.3.3).
constexpr char ascii_fold(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iequals_ascii(std::string_view a, std::string_view b);

std::vector<std::string> split(std::string_view s, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` ends with `suffix` (ASCII case-insensitive).
bool iends_with(std::string_view s, std::string_view suffix);

}  // namespace odns::util
