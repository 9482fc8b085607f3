#include "support/rng.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept {
  // Mix the stream index through two SplitMix64 rounds keyed by the master
  // seed; adjacent stream indices produce unrelated outputs.
  std::uint64_t s = master ^ (0x8e2f9d4b6a3c1e57ULL * (stream + 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept { reseed(seed); }

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
  has_spare_normal_ = false;
}

double Rng::uniform(double lo, double hi) {
  GG_CHECK_ARG(lo < hi, "uniform() requires lo < hi");
  return lo + (hi - lo) * next_double();
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::below_excluding(std::uint64_t n, std::uint64_t exclude) {
  GG_CHECK_ARG(n >= 2, "below_excluding() requires n >= 2");
  GG_CHECK_ARG(exclude < n, "below_excluding() requires exclude < n");
  const std::uint64_t draw = below(n - 1);
  return draw >= exclude ? draw + 1 : draw;
}

void Rng::save(SnapshotWriter& w) const {
  for (const std::uint64_t word : state_) w.u64(word);
  w.f64(spare_normal_);
  w.u8(has_spare_normal_ ? 1 : 0);
}

void Rng::restore(SnapshotReader& r) {
  for (std::uint64_t& word : state_) word = r.u64();
  spare_normal_ = r.f64();
  has_spare_normal_ = r.u8() != 0;
}

}  // namespace geogossip
