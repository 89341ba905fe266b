#pragma once
// Deterministic random source. All stochastic choices in the simulator
// flow through one of these so that a (seed, scale) pair fully
// reproduces a run — the reproduction analogue of the paper's fixed
// April 2021 snapshot.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace odns::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive; throws
  /// std::invalid_argument when lo > hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  int uniform_int(int lo, int hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  double uniform_real(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Geometric-ish heavy tail in [lo, hi]; used for per-/24 host counts.
  std::uint64_t heavy_tail(std::uint64_t lo, std::uint64_t hi, double shape) {
    const double u = uniform_real(1e-12, 1.0);
    const double span = static_cast<double>(hi - lo);
    const double x = span * (1.0 - std::pow(u, shape));
    return lo + static_cast<std::uint64_t>(x);
  }

  /// Picks an index according to the given non-negative weights;
  /// throws std::invalid_argument on an empty set or a negative weight.
  std::size_t weighted(std::span<const double> weights);

  /// Throws std::invalid_argument on an empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty");
    return items[uniform(0, items.size() - 1)];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  /// Derives an independent child stream; the label decorrelates
  /// subsystems that would otherwise consume from one sequence.
  Rng fork(std::uint64_t label) {
    return Rng{engine_() ^ (label * 0x9E3779B97F4A7C15ull)};
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace odns::util
