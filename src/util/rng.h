// Deterministic, seedable random number generation for reproducible runs.
//
// Every randomized component in this library takes an explicit 64-bit seed
// (or an Rng&) so that whole-pipeline runs are reproducible bit-for-bit.
// The generator is SplitMix64-seeded xoshiro256**, which is fast, has a
// 256-bit state, and passes BigCrush.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/require.h"

namespace dmf {

// SplitMix64 step; used to expand a 64-bit seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    DMF_REQUIRE(bound > 0, "next_below: bound must be positive");
    // Lemire's method with rejection for exact uniformity.
    while (true) {
      const std::uint64_t x = (*this)();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const auto lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    DMF_REQUIRE(lo <= hi, "next_int: empty range");
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Bernoulli trial with success probability p.
  bool next_bool(double p) { return next_double() < p; }

  // Derive an independent child generator (for parallel subcomponents).
  Rng split() { return Rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) {
    std::vector<std::size_t> out;
    sample_indices(n, k, out);
    return out;
  }

  // Same draws, written into `out` (its storage is reused).
  void sample_indices(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out) {
    DMF_REQUIRE(k <= n, "sample_indices: k > n");
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + next_below(n - i);
      std::swap(out[i], out[j]);
    }
    out.resize(k);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace dmf
