#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace odns::util {

std::size_t weighted_index(std::span<const double> weights, double x) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  // Rounding left a residual above zero after the last weight.
  std::size_t last = weights.empty() ? 0 : weights.size() - 1;
  while (last > 0 && !(weights[last] > 0.0)) --last;
  return last;
}

WeightTable::WeightTable(std::span<const double> weights)
    : weights_(weights.begin(), weights.end()) {
  prefix_.reserve(weights_.size());
  for (double w : weights_) {
    if (!(w >= 0.0)) {
      throw std::invalid_argument("WeightTable: negative weight");
    }
    total_ += w;
    prefix_.push_back(total_);
  }
  slack_ = 4.0 * static_cast<double>(weights_.size() + 1) *
           std::numeric_limits<double>::epsilon() * total_;
}

std::size_t WeightTable::index(double x) const {
  // The linear draw returns i once x − w_0 − … − w_i ≤ 0. Computed in
  // floating point, that residual stays within (i+1)·ε·total of
  // x − prefix_[i], so an x clear of both prefix sums around it by
  // slack_ reaches zero at exactly this index.
  const auto it = std::lower_bound(prefix_.begin(), prefix_.end(), x);
  if (it != prefix_.end()) {
    const double below = it == prefix_.begin() ? 0.0 : *(it - 1);
    if (*it - x > slack_ && x - below > slack_) {
      return static_cast<std::size_t>(it - prefix_.begin());
    }
  }
  return weighted_index(weights_, x);
}

std::size_t Rng::weighted(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted: empty");
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) {
      throw std::invalid_argument("Rng::weighted: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) return 0;
  return weighted_index(weights, uniform_real(0.0, total));
}

std::size_t Rng::weighted(const WeightTable& table) {
  if (table.size() == 0) throw std::invalid_argument("Rng::weighted: empty");
  if (table.total() <= 0.0) return 0;
  return table.index(uniform_real(0.0, table.total()));
}

}  // namespace odns::util
