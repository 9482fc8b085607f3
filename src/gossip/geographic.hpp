// Dimakis–Sarwate–Wainwright geographic gossip (IPSN 2006) — the O~(n^1.5)
// baseline the paper improves on.
//
// On each tick the active sensor samples a uniformly random position on the
// unit square and greedily routes a packet carrying its value to the node
// nearest that position; that node and the sender adopt the pairwise
// average, with the reply routed back.  Because the sampled node
// distribution is only *roughly* uniform (proportional to Voronoi cell
// areas), rejection sampling thins it towards uniform: the target accepts
// with probability min(1, q_ref / q_target), where q is each node's
// estimated probability of being the nearest node to a uniform position
// and q_ref the kReferenceQuantile quantile of the positive estimates.
// The estimate is Monte Carlo (setup cost, not transmissions — mirroring
// the original paper's preprocessing assumption); experiment E9 validates
// the resulting uniformity.
//
// Atomic-commit policy: an exchange mutates state only if both the forward
// and return routes deliver, keeping the value sum exactly conserved (the
// model assumes reliable in-slot delivery; failures are counted).
//
// A tick gives up after 33 rejected attempts (hops still paid).  With the
// committed reference an attempt is rejected about 63% of the time, so
// that budget binds about once in four million ticks (DESIGN.md §1).
#ifndef GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP
#define GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP

#include <cstdint>
#include <vector>

#include "gossip/base.hpp"

namespace geogossip::gossip {

struct GeographicOptions {
  /// Rejection-sample targets towards the uniform node distribution.
  bool rejection_sampling = true;
};

class GeographicGossip final : public ValueProtocol {
 public:
  /// Acceptance reference: q_ref is this quantile of the positive
  /// estimates, so at least this share of nodes accepts with probability
  /// 1.  The minimum (quantile 0) is one or two of the Monte Carlo
  /// samples, so noise sets it and mean acceptance falls near 0.05;
  /// DESIGN.md §1 gives the rule that chose this quantile and its sweep.
  static constexpr double kReferenceQuantile = 0.10;

  GeographicGossip(const graph::GeometricGraph& graph, std::vector<double> x0,
                   Rng& rng, const GeographicOptions& options = {});

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

  GeographicOptions options_;
  std::vector<double> acceptance_;
  std::uint64_t exchanges_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t failed_routes_ = 0;
};

}  // namespace geogossip::gossip

#endif  // GEOGOSSIP_GOSSIP_GEOGRAPHIC_HPP
