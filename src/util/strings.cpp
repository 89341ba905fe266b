#include "util/strings.hpp"

#include <algorithm>
#include <cctype>

namespace odns::util {

bool iequals_ascii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_fold(a[i]) != ascii_fold(b[i])) return false;
  }
  return true;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool iends_with(std::string_view s, std::string_view suffix) {
  if (suffix.size() > s.size()) return false;
  return iequals_ascii(s.substr(s.size() - suffix.size()), suffix);
}

}  // namespace odns::util
