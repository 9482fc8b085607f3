// The paper's affine update rules.
//
// Mirrored affine pair update (Lemma 1 / appendix form):
//     x_i' = (1 - a_i) x_i + a_j x_j
//     x_j' = (1 - a_j) x_j + a_i x_i
// Both lines read the PRE-update values; the cross coefficients are swapped
// (a_j feeds x_i' and vice versa), which makes the update sum-preserving for
// every a_i, a_j:  x_i' + x_j' = x_i + x_j.  (The paper's matrix expression
// transposes this — see DESIGN.md §5.)  With a_i = 1/2 this is
// classical convex gossip; the paper draws a_i in (1/3, 1/2) at the square
// level, which at the *node* level corresponds to the non-convex jump
//     x_s  += beta (x_s' - x_s),   beta = (2/5) E#(square) = Omega(sqrt(n)),
// the update with a_i = a_j = beta that the protocols apply through
// gossip::ValueProtocol::apply_affine_jump.
#ifndef GEOGOSSIP_CORE_AFFINE_HPP
#define GEOGOSSIP_CORE_AFFINE_HPP

#include "support/rng.hpp"

namespace geogossip::core {

/// Interval the paper requires the square-level coefficients to lie in.
inline constexpr double kAlphaLow = 1.0 / 3.0;
inline constexpr double kAlphaHigh = 1.0 / 2.0;

/// The paper's node-level affine gain factor: beta = (2/5) * expected
/// occupancy of the squares being mixed (§3 step 3-4, §4.2 Far step 2/4).
inline constexpr double kBetaFraction = 2.0 / 5.0;

/// Applies the mirrored affine update in place.
inline void affine_pair_update(double& xi, double& xj, double ai,
                               double aj) noexcept {
  const double old_i = xi;
  const double old_j = xj;
  xi = (1.0 - ai) * old_i + aj * old_j;
  xj = (1.0 - aj) * old_j + ai * old_i;
}

/// Draws a coefficient uniformly from the paper's interval (1/3, 1/2).
double draw_alpha(Rng& rng);

/// The node-level Far gain for squares of expected occupancy `expected`.
double far_beta(double expected_occupancy);

/// Verifies a_i lies in the open interval (1/3, 1/2).
bool alpha_in_paper_range(double alpha) noexcept;

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_AFFINE_HPP
