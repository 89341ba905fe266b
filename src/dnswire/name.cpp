#include "dnswire/name.hpp"

#include "util/strings.hpp"

namespace odns::dnswire {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name{};
  if (text.back() == '.') text.remove_suffix(1);
  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto dot = text.find('.', start);
    const auto end = dot == std::string_view::npos ? text.size() : dot;
    if (end == start) return std::nullopt;  // empty label
    labels.emplace_back(text.substr(start, end - start));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return from_labels(std::move(labels));
}

std::optional<Name> Name::from_labels(std::vector<std::string> labels) {
  std::size_t wire = 1;  // terminating zero octet
  for (const auto& l : labels) {
    if (l.empty() || l.size() > kMaxLabel) return std::nullopt;
    wire += 1 + l.size();
  }
  if (wire > kMaxName) return std::nullopt;
  Name n;
  n.labels_ = std::move(labels);
  return n;
}

std::size_t Name::wire_length() const {
  std::size_t wire = 1;
  for (const auto& l : labels_) wire += 1 + l.size();
  return wire;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  return util::join(labels_, ".");
}

std::optional<Name> Name::prepend(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return from_labels(std::move(labels));
}

bool Name::operator==(const Name& other) const {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!util::iequals_ascii(labels_[i], other.labels_[i])) return false;
  }
  return true;
}

}  // namespace odns::dnswire
