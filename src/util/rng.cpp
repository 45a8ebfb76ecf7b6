#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace fp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // A theoretically possible all-zero state would make the stream constant.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::Range::Range(std::size_t n) : n_(n) {
  require(n > 0, "Rng::Range: n must be positive");
  limit_ = limit_for(n);
  reciprocal_ = ~U128{0} / n + 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: empty range");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Rejection sampling for an unbiased result, offset modulo 2^64 so a
  // span above 2^63 cannot overflow.
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(span));
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: empty range");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace fp
