// Accounting primitives for the round-based simulators (§3's protocol and
// its recursive generalization).
//
// The paper's cost model (DESIGN.md §5) charges:
//   * a long-range exchange: measured greedy-route hops, there and back;
//   * local averaging inside a square ("protocol A" at the leaves): the
//     epsilon-averaging cost of nearest-neighbour gossip on the induced
//     subgraph.  Three charge models are provided:
//       kGrgMixing  — c * m * max(1, (L/r)^2) * ln(m/eps) exchanges, the
//                     Boyd et al. Theta(m * T_mix * log(1/eps)) bound with
//                     T_mix ~ (L/r)^2 for a GRG patch of side L and radius r
//                     (default; matches measured Near behaviour),
//       kQuadratic  — c * m^2 * ln(m/eps), the conservative quadratic bound
//                     quoted by the paper (§5 "averaging time that is
//                     quadratic"),
//       kMeasured   — actually run Near gossip on the square's induced
//                     subgraph until the measured in-square error reaches
//                     eps (exact but only affordable at small n).
//   * activation/deactivation control: one transmission per square member
//     (level-1 flood) or one routed packet per child representative.
#ifndef GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
#define GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP

#include <cstdint>
#include <map>
#include <string_view>
#include <utility>

#include "geometry/hierarchy.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::core {

/// The partition both hierarchical protocols run on: practical threshold,
/// leaves of at most `leaf_threshold` expected members, `max_depth` levels.
geometry::HierarchyConfig practical_hierarchy(double leaf_threshold,
                                              int max_depth);

/// Memoized greedy-route hop counts of the cost model's routed packets,
/// keyed by the unordered node pair.  Greedy routing on a connected
/// G(n, r) at the paper's radius delivers w.h.p.; a route that does not
/// arrive is charged its hops plus the straight-line estimate
/// ceil(distance / r), so accounting stays defined.  Routes are
/// deterministic, so a cold cache recomputes identical counts and
/// snapshots never carry it.
class RouteHopCache {
 public:
  explicit RouteHopCache(const graph::GeometricGraph& graph)
      : graph_(&graph) {}

  std::uint32_t hops(graph::NodeId from, graph::NodeId to);

 private:
  const graph::GeometricGraph* graph_;
  std::map<std::pair<graph::NodeId, graph::NodeId>, std::uint32_t> cache_;
};

enum class LeafCostModel { kGrgMixing, kQuadratic, kMeasured };

std::string_view leaf_cost_model_name(LeafCostModel model) noexcept;

/// How the affine gain beta is derived for an exchange between squares of
/// actual occupancy (m_i, m_j) and common expected occupancy E#.
enum class BetaMode {
  kExpected,        ///< beta = (2/5) E#   — paper-literal (§3 / Far)
  kActualHarmonic,  ///< beta = (2/5) * harmonic_mean(m_i, m_j)
  kConvexRep,       ///< beta = 1/2 — representatives merely average
                    ///< (the convex-combination ablation: no amplification)
};

std::string_view beta_mode_name(BetaMode mode) noexcept;

/// Affine gain for one exchange under `mode`.
double exchange_beta(BetaMode mode, double expected_occupancy,
                     std::size_t occupancy_i, std::size_t occupancy_j);

/// Charged transmissions for averaging a leaf square of `m` members whose
/// side-to-radius ratio is `side_over_radius`, to accuracy `eps`, under the
/// analytic models (kMeasured is handled by the caller running Near).
std::uint64_t charged_leaf_cost(LeafCostModel model, std::size_t m,
                                double side_over_radius, double eps,
                                double constant);

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
