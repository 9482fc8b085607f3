// Asynchronous time model (paper §2).
//
// Every sensor owns an independent rate-1 Poisson clock.  Equivalently a
// single global rate-n Poisson clock ticks and assigns each tick to a node
// chosen uniformly at random; communication completes within one slot.
// AsyncClock implements the equivalent global form.  Runs report ticks and
// transmissions, not Poisson time, so the clock keeps no model time: each
// tick still draws its Exp(n) gap from the RNG and discards it, which
// keeps every pinned trajectory on the same stream.
#ifndef GEOGOSSIP_SIM_CLOCK_HPP
#define GEOGOSSIP_SIM_CLOCK_HPP

#include <cstdint>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::sim {

struct Tick {
  std::uint32_t node = 0;   ///< owner of this tick
  std::uint64_t index = 0;  ///< 0-based global tick counter
};

class AsyncClock {
 public:
  /// `n` sensors, each a rate-1 Poisson process.
  AsyncClock(std::uint32_t n, Rng& rng) : n_(n), rng_(&rng) {
    GG_CHECK_ARG(n >= 1, "AsyncClock: need at least one node");
  }

  /// Draws the next global tick: the gap's one next_u64() (discarded),
  /// then the owner, uniform over the n nodes.
  Tick next() {
    (void)rng_->next_u64();
    Tick tick;
    tick.node = static_cast<std::uint32_t>(rng_->below(n_));
    tick.index = ticks_++;
    return tick;
  }

  std::uint64_t ticks_elapsed() const noexcept { return ticks_; }
  std::uint32_t node_count() const noexcept { return n_; }

  /// Places the clock at a snapshotted stream position.  The RNG is
  /// restored separately; together they make the next() stream continue
  /// exactly where the snapshotted run left off.
  void restore(std::uint64_t ticks) noexcept { ticks_ = ticks; }

 private:
  std::uint32_t n_;
  Rng* rng_;
  std::uint64_t ticks_ = 0;
};

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_CLOCK_HPP
