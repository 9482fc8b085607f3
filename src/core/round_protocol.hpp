// Accounting primitives for the round-based simulators (§3's protocol and
// its recursive generalization).
//
// The paper's cost model (DESIGN.md §3) charges:
//   * a long-range exchange: measured greedy-route hops, there and back;
//   * local averaging inside a square ("protocol A" at the leaves): the
//     epsilon-averaging cost of nearest-neighbour gossip on the induced
//     subgraph.  Two charge models are provided:
//       kGrgMixing  — m * max(1, (L/r)^2) * ln(m/eps) exchanges, the
//                     Boyd et al. Theta(m * T_mix * log(1/eps)) bound with
//                     T_mix ~ (L/r)^2 for a GRG patch of side L and radius r
//                     (default; matches measured Near behaviour),
//       kQuadratic  — m^2 * ln(m/eps), the conservative quadratic bound
//                     quoted by the paper (§5 "averaging time that is
//                     quadratic");
//   * activation/deactivation control: one transmission per square member
//     (level-1 flood) or one routed packet per child representative.
//
// Every routed packet of the model runs between two representatives of one
// square's family: two sibling children (an exchange) or the square and
// one child (activation control).  SquareHopTables therefore keeps the
// greedy-route hop counts per square: a triangular table over the square's
// children that have a representative, and the square's fan-out sum to
// them.  A replicate at n = 2^19 charges about 11M packets over about 456k
// distinct pairs, most of them inside inner squares whose tables hold a
// few hundred entries and stay in cache; a table keyed by node pair across
// the whole hierarchy misses the cache on most lookups.
//
// The root's table is routed one entry per first use: at 2^19 it has 676
// slots (228k pairs), of which a run draws only a few thousand.  An inner
// square is re-averaged every time its parent draws it and ends up using
// every pair, so its whole table is routed, in slot order, on its first
// miss, while the graph rows around its representatives are still in
// cache.  Both policies store the same counts.
#ifndef GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
#define GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "geometry/hierarchy.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::core {

/// The partition both hierarchical protocols run on: practical threshold,
/// leaves of at most `leaf_threshold` expected members, `max_depth` levels.
/// Requires leaf_threshold >= 1: below that every square splits down to
/// max_depth, and the square count grows fourfold per level.
geometry::HierarchyConfig practical_hierarchy(double leaf_threshold,
                                              int max_depth);

/// Greedy-route hop counts of the cost model's routed packets, tabled per
/// hierarchy square.  A square's slots are its children that have a
/// representative (exactly its non-empty children), in arena order.
///
/// A pair's count is that of route_to_node from the smaller node id to the
/// larger, so both directions of an exchange cost the same.  Greedy routing
/// on a connected G(n, r) at the paper's radius delivers w.h.p.; a route
/// that does not arrive is charged its hops plus the straight-line estimate
/// ceil(distance / r), capped at 2^32 - 2, so accounting stays defined.
/// Routes are deterministic, so cold tables recompute identical counts and
/// snapshots never carry them.
class SquareHopTables {
 public:
  SquareHopTables(const graph::GeometricGraph& graph,
                  const geometry::PartitionHierarchy& hierarchy);

  /// Arena ids of the children of `square` that have a representative; a
  /// child's index in this list is its slot.
  std::span<const int> slots(int square) const {
    const auto s = static_cast<std::size_t>(square);
    return std::span<const int>(slot_square_)
        .subspan(slot_start_[s], slot_start_[s + 1] - slot_start_[s]);
  }

  /// Hops of one packet between the representatives in slots `i` != `j`
  /// of `square`.  The first call in a square other than the root routes
  /// its k slots' k (k - 1) / 2 pairs; later calls there route nothing.
  std::uint32_t sibling_hops(int square, std::size_t i, std::size_t j);

  /// Hops of one packet from the representative of `square` to the
  /// representative of each of its slots, summed over the slots.
  std::uint64_t fan_out_hops(int square);

 private:
  std::uint32_t route_hops(graph::NodeId a, graph::NodeId b) const;
  /// Routes the pair of slots `lo` < `hi` of square `s`.
  std::uint32_t route_pair(std::size_t s, std::size_t lo,
                           std::size_t hi) const;

  const graph::GeometricGraph* graph_;
  int root_;
  /// Per square; 0 for an empty square, which has no slots to route to.
  std::vector<graph::NodeId> representative_;
  std::vector<std::uint32_t> slot_start_;  ///< per square, + 1
  std::vector<int> slot_square_;
  std::vector<std::uint64_t> pair_start_;  ///< per square, + 1
  std::vector<std::uint32_t> pair_hops_;   ///< all-ones until routed
  std::vector<std::uint64_t> fan_out_;     ///< all-ones until routed
};

enum class LeafCostModel { kGrgMixing, kQuadratic };

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
/// side-to-radius ratio is `side_over_radius`, to accuracy `eps`.
std::uint64_t charged_leaf_cost(LeafCostModel model, std::size_t m,
                                double side_over_radius, double eps);

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_ROUND_PROTOCOL_HPP
