// Connectivity-radius helpers for geometric random graphs.
//
// Gupta–Kumar: on the unit square, G(n, r) is connected w.h.p. once
// pi r^2 n >= log n + c(n) with c(n) -> infinity; the threshold radius is
// r*(n) = sqrt(log n / (pi n)).  The paper (and Dimakis et al.) assume
// r = Theta(sqrt(log n / n)); we expose the multiplier explicitly.
#ifndef GEOGOSSIP_GRAPH_RADIUS_HPP
#define GEOGOSSIP_GRAPH_RADIUS_HPP

#include <cstddef>
#include <cstdint>

namespace geogossip::graph {

/// sqrt(log n / (pi n)) — the sharp connectivity threshold on the unit square.
double threshold_radius(std::size_t n);

/// multiplier * sqrt(log n / n) — the paper's standing assumption.  The
/// default multiplier 2.0 keeps small deployments (n ~ 10^2..10^3) connected
/// in essentially every seed, matching the "assume connected" analysis.
double paper_radius(std::size_t n, double multiplier = 2.0);

/// Expected degree of a node far from the boundary: n * pi * r^2.
double expected_interior_degree(std::size_t n, double r);

/// Expected hop count of a greedy geographic route across distance d when
/// each hop advances Theta(r): ceil(d / r) as a real number.
double expected_route_hops(double distance, double r);

/// Conservative estimate (bytes) of the resident peak of one
/// GeometricGraph::sample(n, multiplier) plus a protocol replicate on it:
/// positions, bucket grid and CSR arcs sized at the full interior expected
/// degree (boundary nodes see less), the routing-ordered mirror (5 bytes
/// per arc) when `with_routing_mirror`, and a per-node allowance for the
/// field, protocol and tracker state.  The allowance is fitted to the
/// measured peak RSS (VmHWM) of one lone affine-multilevel replicate at
/// multiplier 1.2 with the mirror built: the estimate exceeds it by about
/// 11% at n = 2^19 (348 vs 313 MiB) and at n = 2^20 (724 vs 650 MiB).  The
/// experiment Runner gates concurrent replicates on these hints so XL
/// sweeps never oversubscribe memory; see
/// exp::RunnerOptions::memory_budget_bytes.
std::uint64_t estimate_build_memory_bytes(std::size_t n, double multiplier,
                                          bool with_routing_mirror);

}  // namespace geogossip::graph

#endif  // GEOGOSSIP_GRAPH_RADIUS_HPP
