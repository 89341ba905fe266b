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

/// The linear weighted draw every Rng::weighted shares: subtracts the
/// weights from `x` in order and returns the first index whose residual
/// reaches zero. When rounding leaves a positive residual past the last
/// weight (x at or near the total), returns the last index with a
/// positive weight, never a zero-weight one.
[[nodiscard]] std::size_t weighted_index(std::span<const double> weights,
                                         double x);

/// A fixed weight vector prepared for repeated draws: validated once,
/// with its prefix sums, so Rng::weighted(table) binary-searches instead
/// of scanning. Draws are exact: the index and the engine state equal
/// Rng::weighted(span) over the same weights, draw for draw.
class WeightTable {
 public:
  /// Throws std::invalid_argument on a negative or NaN weight. An empty
  /// table is legal; drawing from it throws.
  explicit WeightTable(std::span<const double> weights);

  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  /// Sum of the weights, added in index order (the bound of the draw).
  [[nodiscard]] double total() const { return total_; }
  /// weighted_index(weights, x), found by binary search whenever `x`
  /// lies further than the rounding bound from both neighbouring prefix
  /// sums, and by weighted_index itself otherwise.
  [[nodiscard]] std::size_t index(double x) const;

 private:
  std::vector<double> weights_;
  /// prefix_[i] = weights_[0] + … + weights_[i], summed left to right.
  std::vector<double> prefix_;
  double total_ = 0.0;
  /// Bound on how far the linear residual and a prefix sum can disagree
  /// through rounding: about 4(n+1)·ε·total.
  double slack_ = 0.0;
};

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
  /// The same draw over a prepared table (O(log n) per draw); throws
  /// std::invalid_argument on an empty table.
  std::size_t weighted(const WeightTable& table);

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
