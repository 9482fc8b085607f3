#include "graph/radius.hpp"

#include <cmath>
#include <numbers>

#include "support/check.hpp"

namespace geogossip::graph {

double threshold_radius(std::size_t n) {
  GG_CHECK_ARG(n >= 2, "threshold_radius: n >= 2");
  const double nn = static_cast<double>(n);
  return std::sqrt(std::log(nn) / (std::numbers::pi * nn));
}

double paper_radius(std::size_t n, double multiplier) {
  GG_CHECK_ARG(n >= 2, "paper_radius: n >= 2");
  GG_CHECK_ARG(multiplier > 0.0, "paper_radius: multiplier > 0");
  const double nn = static_cast<double>(n);
  return multiplier * std::sqrt(std::log(nn) / nn);
}

double expected_interior_degree(std::size_t n, double r) {
  GG_CHECK_ARG(r > 0.0, "expected_interior_degree: r > 0");
  return static_cast<double>(n) * std::numbers::pi * r * r;
}

double expected_route_hops(double distance, double r) {
  GG_CHECK_ARG(r > 0.0, "expected_route_hops: r > 0");
  GG_CHECK_ARG(distance >= 0.0, "expected_route_hops: distance >= 0");
  return std::ceil(distance / r);
}

std::uint64_t estimate_build_memory_bytes(std::size_t n, double multiplier,
                                          bool with_routing_mirror) {
  GG_CHECK_ARG(n >= 2, "estimate_build_memory_bytes: n >= 2");
  const double nn = static_cast<double>(n);
  const double degree =
      expected_interior_degree(n, paper_radius(n, multiplier));
  const double arcs = nn * degree;  // directed CSR entries, 2 * edges
  double bytes = 0.0;
  bytes += nn * 16.0;         // positions (Vec2)
  bytes += nn * 8.0 + 4096;   // bucket-grid entries + bucket starts
  bytes += nn * 8.0 + arcs * 4.0;  // CSR offsets + targets
  if (with_routing_mirror) bytes += arcs * 5.0;  // mirror ids + annuli
  bytes += nn * 128.0;        // field, protocol and tracker state (fitted)
  return static_cast<std::uint64_t>(bytes);
}

}  // namespace geogossip::graph
