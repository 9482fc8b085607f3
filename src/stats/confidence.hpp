// Binomial confidence interval for E2's empirical tail frequencies.
#ifndef GEOGOSSIP_STATS_CONFIDENCE_HPP
#define GEOGOSSIP_STATS_CONFIDENCE_HPP

#include <cstdint>

namespace geogossip::stats {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// 95% Wilson score interval for a binomial proportion (successes/trials).
Interval proportion_confidence_interval(std::uint64_t successes,
                                        std::uint64_t trials);

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_CONFIDENCE_HPP
