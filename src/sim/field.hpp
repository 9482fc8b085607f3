// Initial-value fields x(0) for averaging experiments.
//
// The paper proves worst-case bounds over all x(0); simulations follow the
// gossip literature (Boyd et al., Dimakis et al.) and sweep representative
// fields: a single spike (hardest for local protocols), a linear gradient
// (smooth spatial correlation), i.i.d. Gaussians, a checkerboard
// (high-frequency spatial field), and Gaussians with a sqrt(n) spike (the
// sweeps' default).
#ifndef GEOGOSSIP_SIM_FIELD_HPP
#define GEOGOSSIP_SIM_FIELD_HPP

#include <string>
#include <vector>

#include "geometry/vec2.hpp"
#include "support/rng.hpp"

namespace geogossip::sim {

enum class FieldKind {
  kSpike,           ///< single spike (hardest case for local protocols)
  kGradient,        ///< x + y of the node position
  kGaussian,        ///< i.i.d. standard normals
  kCheckerboard,    ///< +-1 by spatial parity
  kSpikedGaussian,  ///< i.i.d. gaussians + a sqrt(n) spike at a random node
};

std::string_view field_kind_name(FieldKind kind) noexcept;

/// Parses "spike" / "gradient" / "gaussian" / "checkerboard" /
/// "spiked-gaussian".
FieldKind parse_field_kind(const std::string& name);

/// All ones at a single random node, zero elsewhere (before centering).
std::vector<double> spike_field(std::size_t n, Rng& rng);

/// x_i = p_i.x + p_i.y.
std::vector<double> gradient_field(const std::vector<geometry::Vec2>& points);

/// i.i.d. standard normals.
std::vector<double> gaussian_field(std::size_t n, Rng& rng);

/// +-1 by parity of the k x k cell containing the point.
std::vector<double> checkerboard_field(
    const std::vector<geometry::Vec2>& points, int k);

/// Dispatch by kind; `points` needed for the spatial kinds.
std::vector<double> make_field(FieldKind kind,
                               const std::vector<geometry::Vec2>& points,
                               Rng& rng);

/// Shifts to zero mean (the paper's WLOG sum x_i = 0) and scales to unit
/// l2 norm, in place.  A constant field degenerates to all zeros.
void center_and_normalize(std::vector<double>& values);

}  // namespace geogossip::sim

#endif  // GEOGOSSIP_SIM_FIELD_HPP
