// Greedy geographic routing (Dimakis et al. §"greedy geographic routing",
// used verbatim by the paper for all long-range packet exchanges).
//
// A packet at node v headed for a target position p is forwarded to the
// neighbour of v strictly closest to p (closer than v itself).  On a
// connected G(n, r) with r = Theta(sqrt(log n / n)) this advances Theta(r)
// towards p per hop w.h.p., giving O(sqrt(n / log n)) hops across constant
// distances — the O(sqrt(n)) transmissions-per-exchange term in the paper's
// accounting (experiment E6 measures this).
//
// Failure mode: a node with no neighbour closer to p is a dead end (possible
// on sparse or clustered deployments); results report it rather than loop.
#ifndef GEOGOSSIP_ROUTING_GREEDY_HPP
#define GEOGOSSIP_ROUTING_GREEDY_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "geometry/vec2.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::routing {

enum class RouteStatus {
  kArrived,    ///< reached the destination node / local minimum of target
  kDeadEnd,    ///< no strictly closer neighbour before reaching destination
  kHopBudget,  ///< exceeded the hop budget (routing loop guard)
};

struct RouteResult {
  RouteStatus status = RouteStatus::kDeadEnd;
  /// Node where the packet stopped.
  graph::NodeId final_node = 0;
  /// Transmissions used (= edges traversed).
  std::uint32_t hops = 0;
  /// Adjacency entries the annulus bound ruled out unscanned (telemetry).
  std::uint64_t pruned = 0;

  bool arrived() const noexcept { return status == RouteStatus::kArrived; }
};

struct RouteOptions {
  /// 0 = automatic: 4 * ceil(diagonal / r) + 16.
  std::uint32_t max_hops = 0;
  /// When non-null, the visited node sequence (including source) is
  /// appended here.  The routers reserve() the full hop budget up front,
  /// so a buffer reused across rounds (clear(), keep capacity) makes
  /// traced routing allocation-free after the first call.
  std::vector<graph::NodeId>* trace = nullptr;
};

/// Routes from `source` towards the fixed node `destination` (position
/// known to the sender, per the geographic-gossip model).  Arrives when the
/// packet reaches `destination` itself.
RouteResult route_to_node(const graph::GeometricGraph& g,
                          graph::NodeId source, graph::NodeId destination,
                          const RouteOptions& options = {});

/// Routes from `source` towards an arbitrary position.  The packet stops at
/// the first node with no neighbour closer to `target` — i.e. the node
/// "nearest the random position" in the sense used by Dimakis et al.'s
/// target-sampling step.  This terminal condition always counts as arrival.
RouteResult route_to_position(const graph::GeometricGraph& g,
                              graph::NodeId source, geometry::Vec2 target,
                              const RouteOptions& options = {});

/// Default hop budget used when RouteOptions::max_hops == 0.
std::uint32_t default_hop_budget(const graph::GeometricGraph& g);

}  // namespace geogossip::routing

#endif  // GEOGOSSIP_ROUTING_GREEDY_HPP
