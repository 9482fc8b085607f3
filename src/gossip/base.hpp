// Shared state for value-carrying gossip protocols on a geometric graph.
//
// ValueProtocol owns the per-node values and centralizes EVERY mutation of
// them behind a small update API (apply_pair_average / apply_average /
// apply_affine_jump / set_value).  Routing all writes through one place
// lets the base class maintain the deviation norm ||x - mean||^2
// incrementally (Neumaier-compensated, with a periodic exact refresh to
// bound FP drift), which makes the engine's per-tick convergence check an
// O(1) read.
#ifndef GEOGOSSIP_GOSSIP_BASE_HPP
#define GEOGOSSIP_GOSSIP_BASE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/geometric_graph.hpp"
#include "sim/deviation_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace geogossip::gossip {

/// Base class: holds the graph reference, per-node values, the RNG stream
/// and the transmission meter.  Derived classes implement on_tick() and
/// mutate values only through the protected update API.
class ValueProtocol : public sim::GossipProtocol {
 public:
  ValueProtocol(const graph::GeometricGraph& graph, std::vector<double> x0,
                Rng& rng);

  std::span<const double> values() const override { return x_; }
  const sim::TxMeter& meter() const override { return meter_; }

  /// O(1): incrementally tracked ||x - mean||^2.
  double deviation_sq() const override { return tracker_.deviation_sq(); }

  /// Invariant observed by tests: pairwise/affine exchanges conserve the
  /// sum.  Recomputed exactly (O(n)) so conservation checks do not inherit
  /// tracker error.
  double value_sum() const noexcept;

  /// sum(x) as the deviation tracker holds it: exact to rounding right
  /// after a refresh, drifting by rounding residue as updates follow.
  double tracked_sum() const noexcept { return tracker_.sum(); }

  const graph::GeometricGraph& graph() const noexcept { return *graph_; }

  /// Element updates between exact tracker refreshes (drift bound).
  /// Requires interval >= 1.
  void set_tracker_refresh_interval(std::uint64_t interval);
  std::uint64_t tracker_refresh_interval() const noexcept {
    return refresh_interval_;
  }
  /// Exact refreshes performed so far (cadence observability for tests).
  std::uint64_t tracker_refreshes() const noexcept { return refreshes_; }

  /// Snapshot/Restore contract (sim::GossipProtocol): the base serializes
  /// the values, the deviation tracker (compensated sums + refresh phase)
  /// and the transmission meter; families append their trajectory scratch
  /// via snapshot_scratch()/restore_scratch().
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;

 protected:
  /// Family-specific trajectory state beyond the base fields (exchange
  /// counters, per-node protocol state).  Defaults: nothing extra.
  virtual void snapshot_scratch(SnapshotWriter& w) const { (void)w; }
  virtual void restore_scratch(SnapshotReader& r) { (void)r; }
  /// Read access; writes must go through the update API below.
  double value(graph::NodeId node) const { return x_[node]; }

  /// Both nodes adopt their pairwise average.
  void apply_pair_average(graph::NodeId a, graph::NodeId b);

  /// Every listed node adopts the mean of the listed nodes (path
  /// averaging, neighbourhood dilution).  Nodes must be distinct.
  void apply_average(std::span<const graph::NodeId> nodes);

  /// The paper's mirrored affine jump: both endpoints move by
  /// beta * (other - self) on pre-update values (sum-preserving).
  void apply_affine_jump(graph::NodeId a, graph::NodeId b, double beta);

  /// Arbitrary single-value write (escape hatch; still tracked).
  void set_value(graph::NodeId node, double value);

  /// Exact tracker refresh on the caller's own cadence; unlike the
  /// element-count refresh it is not counted in tracker_refreshes().
  void refresh_tracker();

  const graph::GeometricGraph* graph_;
  Rng* rng_;
  sim::TxMeter meter_;

 private:
  void note_updates(std::uint64_t count);

  std::vector<double> x_;
  sim::DeviationTracker tracker_;
  std::uint64_t refresh_interval_;
  std::uint64_t updates_since_refresh_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace geogossip::gossip

#endif  // GEOGOSSIP_GOSSIP_BASE_HPP
