#include "common/rng.hpp"

#include <cmath>

namespace hymm {

namespace {

// splitmix64: expands a single seed into well-distributed state words.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  HYMM_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias: draws below
  // threshold = 2^64 mod bound are redrawn. threshold < bound, so a
  // draw of at least bound is accepted without computing it.
  std::uint64_t r = next_u64();
  if (r >= bound) return r % bound;
  const std::uint64_t threshold = (0ULL - bound) % bound;
  while (r < threshold) r = next_u64();
  return r % bound;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1) double.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  HYMM_CHECK(lo <= hi);
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  const double v = next_double();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * 3.14159265358979323846 * v;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_gaussian_ = true;
  return r * std::cos(theta);
}

}  // namespace hymm
