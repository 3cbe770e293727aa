#include "src/util/rng.h"

#include <cassert>
#include <cmath>

namespace plumber {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    x = SplitMix64(x);
    s = x;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Exponential(double rate) {
  assert(rate > 0);
  double u = UniformDouble();
  while (u <= 0) u = UniformDouble();
  return -std::log(u) / rate;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  double x = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace plumber
