#pragma once
// Domain names as label sequences. Comparison is ASCII
// case-insensitive (RFC 1035 §2.3.3); presentation parsing enforces the
// 63-octet label and 255-octet name limits. Maps key names by
// dnswire::wire_key (arena_codec.hpp), never by the dotted text.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace odns::dnswire {

class Name {
 public:
  Name() = default;  // the root name

  /// Parses presentation format ("www.example.com", trailing dot
  /// optional; "." is the root). Returns nullopt when a label is empty,
  /// overlong, or the total wire length would exceed 255 octets.
  static std::optional<Name> parse(std::string_view text);

  /// Builds from raw labels (must already satisfy length limits).
  static std::optional<Name> from_labels(std::vector<std::string> labels);

  [[nodiscard]] bool is_root() const { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }
  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }

  /// Wire-format length in octets (sum of label lengths + length bytes
  /// + terminating zero), without compression.
  [[nodiscard]] std::size_t wire_length() const;

  /// "www.example.com" (no trailing dot); "." for the root.
  [[nodiscard]] std::string to_string() const;

  /// New name with `label` prepended: prepend("a") on "b.c" -> "a.b.c".
  [[nodiscard]] std::optional<Name> prepend(std::string_view label) const;

  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }

 private:
  std::vector<std::string> labels_;
};

}  // namespace odns::dnswire
