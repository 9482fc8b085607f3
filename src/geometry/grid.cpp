#include "geometry/grid.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace geogossip::geometry {

std::int64_t nearest_even_square(double target) {
  GG_CHECK_ARG(target > 0.0, "nearest_even_square: target must be positive");
  // Candidates are (2k)^2; the real-valued optimum is k* = sqrt(target)/2.
  const double k_star = std::sqrt(target) / 2.0;
  const auto k_lo = static_cast<std::int64_t>(std::floor(k_star));
  std::int64_t best = -1;
  double best_gap = 0.0;
  for (std::int64_t k = std::max<std::int64_t>(1, k_lo - 1);
       k <= k_lo + 2; ++k) {
    const double value = 4.0 * static_cast<double>(k) * static_cast<double>(k);
    const double gap = std::abs(value - target);
    if (best < 0 || gap < best_gap) {
      best = 2 * k;
      best_gap = gap;
    }
  }
  return best * best;
}

std::int64_t paper_subsquare_count(double expected_occupancy) {
  GG_CHECK_ARG(expected_occupancy > 0.0,
               "paper_subsquare_count: occupancy must be positive");
  return nearest_even_square(std::sqrt(expected_occupancy));
}

}  // namespace geogossip::geometry
