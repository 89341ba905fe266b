#pragma once
// Console table and CSV writers used by the bench harness to print the
// paper's tables/figures as aligned text and machine-readable rows.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace odns::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Throws std::invalid_argument unless the row has one cell per
  /// header.
  Table& add_row(std::vector<std::string> cells);

  /// Formats the table with column alignment; numeric-looking cells are
  /// right-aligned.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::string to_csv() const;

  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  static std::string fmt_double(double v, int precision = 1);
  static std::string fmt_percent(double fraction, int precision = 1);
  static std::string fmt_count(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace odns::util
