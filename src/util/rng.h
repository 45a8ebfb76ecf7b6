// Deterministic, seedable random number generation.
//
// All stochastic parts of fpkit (random baseline assignment, synthetic
// circuit generation, simulated annealing) draw from fp::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** seeded through splitmix64, which has good statistical
// properties and is much faster than std::mt19937_64.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"

namespace fp {

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// A span n > 0 prepared once for repeated index() draws (the SA loop's
  /// supply list, quadrant count and finger counts). It holds the
  /// rejection limit index(n) computes per draw and a 128-bit reciprocal
  /// that turns `v % n` into multiplications (Lemire's fastmod), so
  /// index(range) returns exactly index(n)'s value from the same next()
  /// calls, without a division. Throws InvalidArgument when n is 0.
  class Range {
   public:
    explicit Range(std::size_t n);

    [[nodiscard]] std::size_t size() const { return n_; }

   private:
    friend class Rng;
    __extension__ using U128 = unsigned __int128;

    std::uint64_t n_;
    std::uint64_t limit_;
    /// floor((2^128 - 1) / n) + 1, which wraps to 0 at n = 1.
    U128 reciprocal_;
  };

  /// Seeds the state by running splitmix64 on `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm>/<random>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform size_t index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    require(n > 0, "Rng::index: n must be positive");
    return below(n);
  }

  /// index(range.size()), bit for bit and draw for draw.
  std::size_t index(const Range& range) {
    const std::uint64_t v = accepted_draw(range.limit_);
    // v % n is the high word of frac(v * M / 2^128) * n, M = ceil(2^128/n).
    const Range::U128 fraction = range.reciprocal_ * v;
    const Range::U128 low =
        static_cast<Range::U128>(static_cast<std::uint64_t>(fraction)) *
        range.n_;
    return static_cast<std::size_t>(
        ((fraction >> 64) * range.n_ + (low >> 64)) >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 top bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller.
  double normal();

  /// Fisher-Yates shuffle of `items` in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[index(i + 1)]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Derives an independent child generator (for per-quadrant streams).
  Rng split();

 private:
  /// The rejection limit for span n > 0: max() less max() % n, a multiple
  /// of n, so v % n is unbiased over the draws v below it.
  static std::uint64_t limit_for(std::uint64_t n) { return max() - max() % n; }

  /// The first next() below `limit`.
  std::uint64_t accepted_draw(std::uint64_t limit) {
    std::uint64_t v = next();
    while (v >= limit) v = next();
    return v;
  }

  /// Uniform in [0, n) for any n > 0 up to 2^64 - 1.
  std::uint64_t below(std::uint64_t n) {
    return accepted_draw(limit_for(n)) % n;
  }

  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fp
