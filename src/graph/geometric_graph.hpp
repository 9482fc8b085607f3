// Geometric random graph G(n, r): the paper's network model.
//
// GeometricGraph bundles the sampled positions, the connectivity radius and
// the CSR adjacency, plus the bucket-grid index reused by routing and by the
// protocols for nearest-node queries.
//
// Construction scans the bucket grid once per node and appends the node's
// (sorted) row to one target array, writing the running row ends as the
// offsets.  No edge-list intermediate and no global sort: each node's row
// is a pure function of the point set.
//
// The routing-ordered adjacency mirror that greedy routing scans is LAZY:
// it is built on the first ensure_routing_mirror() call, which the greedy
// routers issue on entry, so workloads that never route (spectral probes,
// connectivity sweeps, nearest-neighbour gossip) never pay its build time
// or its 5 bytes/arc (a node id and a one-byte annulus index).  The build
// is not synchronized: route once (or call ensure_routing_mirror()) before
// sharing a graph across threads.  The Runner, perfbench and the probes
// each build and route a graph on one thread.
#ifndef GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP
#define GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/spatial_index.hpp"
#include "geometry/vec2.hpp"
#include "graph/csr.hpp"
#include "support/rng.hpp"

namespace geogossip::graph {

class GeometricGraph {
 public:
  /// Connects every pair of `points` within distance r (closed ball).
  /// Points must lie in the closed `region`; n must stay below the 32-bit
  /// NodeId ceiling (2^32).
  GeometricGraph(std::vector<geometry::Vec2> points, double r,
                 const geometry::Rect& region = geometry::Rect::unit_square());

  /// Samples n i.i.d. uniform points on the unit square and connects at the
  /// paper's radius multiplier * sqrt(log n / n).
  static GeometricGraph sample(std::size_t n, double radius_multiplier,
                               Rng& rng);

  std::size_t node_count() const noexcept { return points_.size(); }
  double radius() const noexcept { return r_; }
  const geometry::Rect& region() const noexcept { return region_; }
  const std::vector<geometry::Vec2>& points() const noexcept {
    return points_;
  }
  /// Checked single-position lookup (wide contract).
  geometry::Vec2 position(NodeId node) const;
  /// Flat unchecked position span for hot loops that index with ids
  /// produced by this graph's own adjacency (greedy routing advances one
  /// position read per candidate neighbour; the per-read bounds check and
  /// out-of-line call of position() dominated the hop cost).
  std::span<const geometry::Vec2> positions() const noexcept {
    return points_;
  }

  const CsrGraph& adjacency() const noexcept { return csr_; }
  std::span<const NodeId> neighbors(NodeId node) const {
    return csr_.neighbors(node);
  }
  std::size_t degree(NodeId node) const { return csr_.degree(node); }

  /// Annuli per routing-ordered adjacency list (see routing_ids()).
  static constexpr int kRoutingAnnuli = 32;

  /// Builds the routing-ordered mirror if it does not exist yet.  Not
  /// safe to call concurrently with the first build (see the file
  /// comment); the greedy routers call it once per route entry, so plain
  /// library users never need to.
  void ensure_routing_mirror() const {
    if (!routing_mirror_built()) build_routing_mirror();
  }
  /// Whether the mirror has been materialized.
  bool routing_mirror_built() const noexcept {
    return mirror_->ids != nullptr;
  }

  /// Routing-ordered adjacency (ids unchecked — they must come from this
  /// graph): the same neighbour set as neighbors(node), grouped into
  /// K = kRoutingAnnuli distance annuli farthest-first, CSR order kept
  /// inside each.  Annulus a has outer edge r * (K - a) / K, and an arc
  /// belongs to the innermost annulus whose edge it does not exceed;
  /// routing_annuli() gives each entry's annulus index and
  /// routing_bounds()[a] that edge rounded UP to float, so the bounds never
  /// increase along a row.  greedy_step scans this order and stops at the
  /// first entry whose triangle-inequality bound
  ///     dist(u, target) >= dist(node, target) - |u - node|
  /// already rules out every remaining (nearer-to-node) neighbour — for
  /// far targets that prunes most of the list, exactly.  The row layout
  /// mirrors the CSR exactly (same per-node counts), so the CSR offsets
  /// slice both arrays.  Self-ensuring: the first call materializes the
  /// lazy mirror; the steady-state cost is one null check, noise against
  /// the row scan that follows.
  std::span<const NodeId> routing_ids(NodeId node) const {
    ensure_routing_mirror();
    return routing_ids_unchecked(node);
  }
  std::span<const std::uint8_t> routing_annuli(NodeId node) const {
    ensure_routing_mirror();
    return routing_annuli_unchecked(node);
  }
  std::span<const float, kRoutingAnnuli> routing_bounds() const {
    ensure_routing_mirror();
    return routing_bounds_unchecked();
  }

  /// Unchecked variants for per-hop loops that have already ensured the
  /// mirror once at route entry (greedy_step): no null check, and
  /// noexcept.  Calling these before ensure_routing_mirror() is UB, like
  /// neighbors_unchecked with a foreign id.
  std::span<const NodeId> routing_ids_unchecked(NodeId node) const noexcept {
    const auto offsets = csr_.offsets();
    return {mirror_->ids.get() + offsets[node],
            mirror_->ids.get() + offsets[node + 1]};
  }
  std::span<const std::uint8_t> routing_annuli_unchecked(
      NodeId node) const noexcept {
    const auto offsets = csr_.offsets();
    return {mirror_->annuli.get() + offsets[node],
            mirror_->annuli.get() + offsets[node + 1]};
  }
  std::span<const float, kRoutingAnnuli> routing_bounds_unchecked()
      const noexcept {
    return mirror_->bounds;
  }

  /// Bucket-grid index over the node positions (cell size >= r; see
  /// geometry::BucketGrid::side_for).
  const geometry::BucketGrid& index() const noexcept { return *index_; }

  /// Node nearest an arbitrary position (used by geographic routing).
  NodeId nearest_node(geometry::Vec2 position) const;

  std::string summary() const;

 private:
  // Lazily-built routing mirror (null ids until built), behind a pointer
  // so that the const routing entry points can fill it.
  struct RoutingMirror {
    std::unique_ptr<NodeId[]> ids;
    std::unique_ptr<std::uint8_t[]> annuli;
    std::array<float, kRoutingAnnuli> bounds{};
  };

  void build_routing_mirror() const;

  std::vector<geometry::Vec2> points_;
  double r_;
  geometry::Rect region_;
  std::unique_ptr<geometry::BucketGrid> index_;
  CsrGraph csr_;
  std::unique_ptr<RoutingMirror> mirror_;
};

}  // namespace geogossip::graph

#endif  // GEOGOSSIP_GRAPH_GEOMETRIC_GRAPH_HPP
