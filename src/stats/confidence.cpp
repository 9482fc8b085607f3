#include "stats/confidence.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace geogossip::stats {

Interval proportion_confidence_interval(std::uint64_t successes,
                                        std::uint64_t trials) {
  GG_CHECK_ARG(trials > 0, "proportion CI requires trials > 0");
  GG_CHECK_ARG(successes <= trials, "successes cannot exceed trials");
  const double z = 1.959963984540054;  // two-sided 95% normal quantile
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return Interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace geogossip::stats
