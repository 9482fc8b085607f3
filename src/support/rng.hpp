// Deterministic, stream-splittable pseudo-random number generation.
//
// Every stochastic component of the library takes an explicit Rng&; there is
// no hidden global state, so every experiment is reproducible from a master
// seed.  The engine is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that nearby integer seeds yield decorrelated streams.
#ifndef GEOGOSSIP_SUPPORT_RNG_HPP
#define GEOGOSSIP_SUPPORT_RNG_HPP

#include <array>
#include <cstdint>
#include <limits>

#include "support/check.hpp"

namespace geogossip {

class SnapshotReader;
class SnapshotWriter;

/// SplitMix64 step; used for seeding and for cheap hash-style mixing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives an independent stream seed from (master, stream index).
/// Useful for giving each trial / each node its own reproducible stream.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept;

/// xoshiro256** engine.  Satisfies std::uniform_random_bit_generator so it
/// can also be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }
  result_type next_u64() noexcept {
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

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo < hi (checked).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0 (checked).  Uses Lemire's
  /// unbiased bounded generation.
  std::uint64_t below(std::uint64_t n) {
    GG_CHECK_ARG(n > 0, "below() requires n > 0");
    // Lemire's nearly-divisionless unbiased method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() noexcept;

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;

  /// Uniform index != exclude, in [0, n).  Requires n >= 2 (checked).
  std::uint64_t below_excluding(std::uint64_t n, std::uint64_t exclude);

  /// Re-seeds the engine in place.
  void reseed(std::uint64_t seed) noexcept;

  /// Exact stream-position save/restore: serializes the xoshiro256** state
  /// words AND the Marsaglia polar spare (a cached normal() draw is part of
  /// the stream position — dropping it would shift every draw after the
  /// next normal()).  restore() continues the stream bit-identically; it is
  /// NOT a reseed.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_RNG_HPP
