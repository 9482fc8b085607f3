#include "routing/route_stats.hpp"

#include "geometry/vec2.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"

namespace geogossip::routing {

using graph::NodeId;

namespace {

void accumulate(RouteCampaignResult& out, const RouteResult& route,
                double euclidean, double radius) {
  ++out.attempted;
  switch (route.status) {
    case RouteStatus::kArrived:
      ++out.delivered;
      out.hops.push(static_cast<double>(route.hops));
      if (euclidean > radius) {
        out.stretch.push(static_cast<double>(route.hops) /
                         (euclidean / radius));
      }
      return;
    case RouteStatus::kDeadEnd:
      ++out.dead_ends;
      return;
    case RouteStatus::kHopBudget:
      ++out.budget_exceeded;
      return;
  }
}

}  // namespace

RouteCampaignResult measure_routes(const graph::GeometricGraph& g,
                                   std::uint64_t pairs, Rng& rng) {
  GG_CHECK_ARG(g.node_count() >= 2, "measure_routes: need >= 2 nodes");
  RouteCampaignResult out;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const auto src = static_cast<NodeId>(rng.below(g.node_count()));
    const auto dst = static_cast<NodeId>(
        rng.below_excluding(g.node_count(), src));
    const RouteResult route = route_to_node(g, src, dst);
    accumulate(out, route, distance(g.position(src), g.position(dst)),
               g.radius());
  }
  return out;
}

}  // namespace geogossip::routing
