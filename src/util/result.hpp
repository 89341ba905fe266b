#pragma once
// Minimal result type for fallible operations where exceptions would be
// the wrong tool (hot parsing paths). Modeled after std::expected, which
// is not yet available on the toolchain's C++20 mode.

#include <stdexcept>
#include <utility>
#include <variant>

namespace odns::util {

template <typename T, typename E>
class Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Result(E error) : data_(std::in_place_index<1>, std::move(error)) {}

  [[nodiscard]] bool ok() const { return data_.index() == 0; }
  explicit operator bool() const { return ok(); }

  /// value() on an error and error() on a value throw
  /// std::logic_error (in every build type).
  [[nodiscard]] T& value() & {
    require(ok(), "Result::value() on an error");
    return *std::get_if<0>(&data_);
  }
  [[nodiscard]] const T& value() const& {
    require(ok(), "Result::value() on an error");
    return *std::get_if<0>(&data_);
  }
  [[nodiscard]] T&& value() && {
    require(ok(), "Result::value() on an error");
    return std::move(*std::get_if<0>(&data_));
  }
  [[nodiscard]] const E& error() const {
    require(!ok(), "Result::error() on a value");
    return *std::get_if<1>(&data_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<0>(data_) : std::move(fallback);
  }

 private:
  static void require(bool holds, const char* what) {
    if (!holds) throw std::logic_error(what);
  }

  std::variant<T, E> data_;
};

}  // namespace odns::util
