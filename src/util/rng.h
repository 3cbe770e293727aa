// Deterministic, fast random number generation.
//
// All randomness in the repository flows through these generators with
// explicit seeds so that pipelines, workload generators, and the fleet
// simulator are reproducible run-to-run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace plumber {

// SplitMix64: used for seeding and cheap hashing.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** by Blackman & Vigna; public-domain algorithm.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  uint64_t Next();

  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  // Uniform in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n);
  // Uniform in [lo, hi].
  int64_t UniformRange(int64_t lo, int64_t hi);
  // Uniform real in [0, 1).
  double UniformDouble();
  // Standard normal via Box-Muller.
  double Normal();
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }
  // Exponential with given rate.
  double Exponential(double rate);
  bool Bernoulli(double p) { return UniformDouble() < p; }

  // Samples an index according to (unnormalized, non-negative) weights.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace plumber
