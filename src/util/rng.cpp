#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace odns::util {

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
  double x = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace odns::util
