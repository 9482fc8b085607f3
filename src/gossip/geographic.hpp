// Dimakis–Sarwate–Wainwright geographic gossip (IPSN 2006) — the O~(n^1.5)
// baseline the paper improves on.
//
// On each tick the active sensor samples a uniformly random position on the
// unit square and greedily routes a packet carrying its value to the node
// nearest that position; that node and the sender adopt the pairwise
// average, with the reply routed back.  Because the sampled node
// distribution is only *roughly* uniform (proportional to Voronoi cell
// areas), rejection sampling thins it towards uniform: the target accepts
// with probability q_min / q_target, where q is each node's estimated
// probability of being the nearest node to a uniform position.  The
// estimate is Monte Carlo (setup cost, not transmissions — mirroring the
// original paper's preprocessing assumption); experiment E9 validates the
// resulting uniformity.
//
// Atomic-commit policy: an exchange mutates state only if both the forward
// and return routes deliver, keeping the value sum exactly conserved (the
// model assumes reliable in-slot delivery; failures are counted).
//
// Route lanes: given spare threads, each tick predicts the targets of its
// rejection-sampling attempts from a copy of the RNG and routes them on
// routing::RouteLanes while the tick consumes them in order.  The tick
// still draws every target itself and uses a lane's route only when its
// (source, target) matches bit for bit, so values, counters and snapshots
// are identical at any lane count.
#ifndef GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP
#define GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/vec2.hpp"
#include "gossip/base.hpp"
#include "routing/greedy.hpp"

namespace geogossip::routing {
class RouteLanes;
}  // namespace geogossip::routing

namespace geogossip::gossip {

struct GeographicOptions {
  /// Rejection-sample targets towards the uniform node distribution.
  bool rejection_sampling = true;
  /// Monte Carlo positions per node used to estimate Voronoi weights.
  std::uint32_t weight_samples_per_node = 32;
  /// Give up after this many rejected targets in one tick (hops still paid).
  std::uint32_t max_rejections = 32;
};

class GeographicGossip final : public ValueProtocol {
 public:
  /// `route_lanes` threads route each tick's attempts, the caller's
  /// included; 1 (the default) routes everything inline.
  GeographicGossip(const graph::GeometricGraph& graph, std::vector<double> x0,
                   Rng& rng, const GeographicOptions& options = {},
                   unsigned route_lanes = 1);
  ~GeographicGossip() override;

  std::string_view name() const override { return "dimakis-geographic"; }
  void on_tick(const sim::Tick& tick) override;

  std::uint64_t exchanges() const noexcept { return exchanges_; }
  std::uint64_t rejections() const noexcept { return rejections_; }
  std::uint64_t failed_routes() const noexcept { return failed_routes_; }

  /// Per-node acceptance probabilities (empty when rejection sampling off).
  const std::vector<double>& acceptance() const noexcept {
    return acceptance_;
  }

  /// One target-sampling step exactly as on_tick performs it, without any
  /// value update: routes from `source`, applies rejection, returns the
  /// accepted node.  Used by experiment E9 to measure target uniformity
  /// (hops are charged to the meter).
  graph::NodeId sample_target(graph::NodeId source);

 protected:
  /// The acceptance table is NOT serialized: it is a deterministic function
  /// of (graph, seed) recomputed by the constructor, and restore() runs on
  /// a freshly constructed protocol of the identical configuration.
  void snapshot_scratch(SnapshotWriter& w) const override;
  void restore_scratch(SnapshotReader& r) override;

 private:
  void estimate_acceptance();
  /// Publishes this tick's predicted attempt targets to the lanes.
  void prefetch_attempts(graph::NodeId source);
  /// Forward route of `attempt`: the lanes' when it matches, else inline.
  routing::RouteResult route_attempt(graph::NodeId source,
                                     geometry::Vec2 target,
                                     std::uint32_t attempt);

  GeographicOptions options_;
  std::vector<double> acceptance_;
  std::uint64_t exchanges_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t failed_routes_ = 0;
  /// Predicted attempt targets of the current tick (lanes only).
  std::vector<geometry::Vec2> predicted_;
  /// Null when routing inline.
  std::unique_ptr<routing::RouteLanes> lanes_;
};

}  // namespace geogossip::gossip

#endif  // GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP
