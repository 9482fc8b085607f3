#include "routing/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace geogossip::routing {

using geometry::Vec2;
using geometry::distance_sq;
using graph::GeometricGraph;
using graph::NodeId;

std::uint32_t default_hop_budget(const GeometricGraph& g) {
  const double diagonal = std::sqrt(g.region().width() * g.region().width() +
                                    g.region().height() * g.region().height());
  // Clamped in double before the cast: a tiny radius would overflow it.
  const double budget = 4.0 * std::ceil(diagonal / g.radius()) + 16.0;
  return static_cast<std::uint32_t>(
      std::min(budget, static_cast<double>(UINT32_MAX)));
}

namespace {

/// Single greedy step: the neighbour strictly closest to `target` (closer
/// than `current` itself), or `current` when none is — the sentinel avoids
/// std::optional in the per-hop loop.  Endpoints are validated and the
/// lazy routing mirror ensured ONCE at route entry; every id scanned here
/// comes out of the graph's own CSR, so the inner loop carries no bounds
/// checks or mirror checks (the _unchecked accessors), and the spatially
/// renumbered node ids (GeometricGraph::sample) keep the position reads
/// cache-local.
/// `here_sq` must equal distance_sq(positions[current], target); route
/// loops carry it across hops (the winning candidate's distance IS the
/// next hop's here_sq), saving a recomputation per hop.  On return it
/// holds the winner's squared distance.
inline NodeId greedy_step(const GeometricGraph& g,
                          std::span<const Vec2> positions, NodeId current,
                          Vec2 target, double& here_sq_io,
                          std::uint64_t& pruned_io) noexcept {
  // Scans the routing-ordered adjacency (farthest annulus first).  Two
  // structural optimizations, both exact:
  //  * Triangle-inequality pruning: dist(u, target) >= here - |u - c|,
  //    and the per-entry annulus bound only shrinks along the scan, so
  //    once it rules out the next entry it rules out all remaining ones
  //    — break.
  //  * Four independent min-lanes inside each quad: a single-lane
  //    compare-and-keep is a loop-carried dependency (~5 cycles per
  //    candidate); independent lanes let the loads and multiplies of
  //    consecutive candidates overlap.
  const auto ids = g.routing_ids_unchecked(current);
  const auto annuli = g.routing_annuli_unchecked(current);
  const float* const bound_of = g.routing_bounds_unchecked().data();
  const double here_sq = here_sq_io;
  const double here = std::sqrt(here_sq);
  double best_sq[4] = {here_sq, here_sq, here_sq, here_sq};
  NodeId best[4] = {current, current, current, current};
  const std::size_t count = ids.size();
  std::size_t j = 0;
  double running_best = here_sq;
  for (; j + 4 <= count; j += 4) {
    // Entry j's annulus bound is the largest remaining |u - c|: if even
    // it cannot beat the best so far, no remaining candidate can.
    const double bound = here - static_cast<double>(bound_of[annuli[j]]);
    if (bound > 0.0 && bound * bound >= running_best) break;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const NodeId u = ids[j + lane];
      const double d_sq = distance_sq(positions[u], target);
      if (d_sq < best_sq[lane]) {
        best_sq[lane] = d_sq;
        best[lane] = u;
      }
    }
    running_best = std::min(std::min(best_sq[0], best_sq[1]),
                            std::min(best_sq[2], best_sq[3]));
  }
  for (; j < count; ++j) {
    const double bound = here - static_cast<double>(bound_of[annuli[j]]);
    const double live = std::min(running_best, best_sq[0]);
    if (bound > 0.0 && bound * bound >= live) break;
    const NodeId u = ids[j];
    const double d_sq = distance_sq(positions[u], target);
    if (d_sq < best_sq[0]) {
      best_sq[0] = d_sq;
      best[0] = u;
    }
  }
  double merged_sq = best_sq[0];
  NodeId merged = best[0];
  for (std::size_t lane = 1; lane < 4; ++lane) {
    if (best_sq[lane] < merged_sq ||
        (best_sq[lane] == merged_sq && best[lane] < merged)) {
      merged_sq = best_sq[lane];
      merged = best[lane];
    }
  }
  here_sq_io = merged_sq;
  pruned_io += count - j;  // entries the annulus bound ruled out unscanned
  return merged;
}

/// Telemetry tap at route granularity: one counter bump per finished
/// route, not per hop, so routing telemetry costs nothing on the per-hop
/// path and a handful of adds per route when enabled.
void report_route(const RouteResult& result) {
  if (!obs::enabled()) return;
  static const auto c_routes = obs::counter("routing.routes");
  static const auto c_hops = obs::counter("routing.hops");
  static const auto c_pruned = obs::counter("routing.pruned_candidates");
  static const auto c_dead = obs::counter("routing.dead_ends");
  static const auto c_budget = obs::counter("routing.hop_budget_exceeded");
  obs::add(c_routes);
  obs::add(c_hops, result.hops);
  obs::add(c_pruned, result.pruned);
  if (result.status == RouteStatus::kDeadEnd) obs::add(c_dead);
  if (result.status == RouteStatus::kHopBudget) obs::add(c_budget);
}

/// Stamps a route's final state and feeds it to the telemetry tap.
RouteResult& finish_route(RouteResult& result, RouteStatus status,
                          NodeId final_node, std::uint64_t pruned) {
  result.status = status;
  result.final_node = final_node;
  result.pruned = pruned;
  report_route(result);
  return result;
}

/// Pre-sizes a caller-supplied trace for the whole route up front; one
/// reservation instead of log(budget) growth doublings, and reused
/// capacity on the next round when the caller keeps the buffer.
void prepare_trace(std::vector<NodeId>* trace, std::uint32_t budget,
                   NodeId source) {
  if (trace == nullptr) return;
  trace->reserve(trace->size() + budget + 1);
  trace->push_back(source);
}

}  // namespace

RouteResult route_to_node(const GeometricGraph& g, NodeId source,
                          NodeId destination, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count() && destination < g.node_count(),
               "route endpoints out of range");
  // First route on a graph materializes the routing-ordered mirror (a
  // no-op ever after); greedy_step itself reads it unchecked per hop.
  g.ensure_routing_mirror();
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  const auto positions = g.positions();
  const Vec2 target = positions[destination];

  RouteResult result;
  result.final_node = source;
  prepare_trace(options.trace, budget, source);

  NodeId current = source;
  double cur_sq = distance_sq(positions[current], target);
  std::uint64_t pruned = 0;
  while (current != destination) {
    if (result.hops >= budget) {
      return finish_route(result, RouteStatus::kHopBudget, current, pruned);
    }
    const NodeId next =
        greedy_step(g, positions, current, target, cur_sq, pruned);
    if (next == current) {
      return finish_route(result, RouteStatus::kDeadEnd, current, pruned);
    }
    current = next;
    ++result.hops;
    if (options.trace != nullptr) options.trace->push_back(current);
  }
  return finish_route(result, RouteStatus::kArrived, current, pruned);
}

RouteResult route_to_position(const GeometricGraph& g, NodeId source,
                              Vec2 target, const RouteOptions& options) {
  GG_CHECK_ARG(source < g.node_count(), "route source out of range");
  g.ensure_routing_mirror();
  const std::uint32_t budget =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(g);
  const auto positions = g.positions();

  RouteResult result;
  result.final_node = source;
  prepare_trace(options.trace, budget, source);

  NodeId current = source;
  double cur_sq = distance_sq(positions[current], target);
  std::uint64_t pruned = 0;
  while (true) {
    const NodeId next =
        greedy_step(g, positions, current, target, cur_sq, pruned);
    if (next == current) {
      // Local minimum w.r.t. the target position: this IS the destination
      // for position-targeted routing.
      return finish_route(result, RouteStatus::kArrived, current, pruned);
    }
    if (result.hops >= budget) {
      return finish_route(result, RouteStatus::kHopBudget, current, pruned);
    }
    current = next;
    ++result.hops;
    if (options.trace != nullptr) options.trace->push_back(current);
  }
}

}  // namespace geogossip::routing
