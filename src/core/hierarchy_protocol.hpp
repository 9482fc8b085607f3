// The paper's §4.2 protocol, verbatim, as an asynchronous state machine.
//
// Every node carries local.state / global.state (on/off) and representatives
// carry a counter.  On its own Poisson tick a node runs exactly the paper's
// per-tick program:
//   Level 0:  if local.state == on -> Near (average with a uniform
//             neighbour inside its leaf square);
//   Level>0:  if global.state == on:
//               (a) counter == 0        -> Activate.square
//               (b) with prob p_far     -> Far (affine exchange with a
//                                          sibling representative), then
//                                          counter <- 0 on both ends;
//             if local.state == on     -> Near;
//             counter >= budget        -> Deactivate.square, else counter++.
// Activate/Deactivate at Level 1 flood the leaf square (local.state), at
// Level i > 1 they send routed control packets to the child representatives
// (global.state) — all charged as control transmissions.
//
// Substitutions vs. the literal paper (DESIGN.md §2): the Far rate
// n^(-a)/time(...) and the counter budgets time(n, r, eps_r, delta_r) are
// astronomically conservative; we compute budgets bottom-up from the same
// structural recurrence with the calibrated constants of core/schedule.hpp
// (eps_d = eps_at_depth(eps, d)):
//   T_avg(leaf)     = kLeafBudgetConstant * max(1,(L/r)^2) * 2 ln(E#/eps_d)
//   T_avg(internal) = kInnerRoundConstant * ln(k/eps_d) * kLatencyFactor *
//                     T_avg(child)
//   p_far(square)   = 1 / (kLatencyFactor * T_avg(square))
// preserving the paper's separation property (exchanges are rarer than the
// inverse averaging latency by kLatencyFactor, the stand-in for n^a).  §6's
// key invariant — "w.h.p. there are no long-range transmissions made by any
// node s while □(s) is active" — holds only w.h.p. under the literal n^(-a)
// rates; we enforce it deterministically instead: a representative fires
// Far only while its own square's averaging window is closed.  Without this
// gate, consecutive Fars of the same representative compound the Omega(
// sqrt(n)) jump before local averaging spreads it, and the run can diverge.
//
// Gain: BetaMode::kActualHarmonic (beta from the squares' actual
// occupancies; DESIGN.md §2).  The paper's beta = (2/5) E# relies on every
// occupancy concentrating within 10% of E#, which needs the (log n)^8-sized
// squares of the asymptotic regime; at simulable occupancies (tens of
// sensors), a persistently under-occupied square makes the effective
// alpha = beta / m exceed 1 and the mirrored update amplifies instead of
// contracts.  The harmonic gain keeps alpha in (0, 0.8) for every occupancy
// pair while remaining a Theta(E#) non-convex affine jump — the paper's
// mechanism.
//
// The root representative has no siblings: it never fires Far and never
// deactivates — it turns the hierarchy on and the closed-loop engine stops
// the run at the epsilon target.
#ifndef GEOGOSSIP_CORE_HIERARCHY_PROTOCOL_HPP
#define GEOGOSSIP_CORE_HIERARCHY_PROTOCOL_HPP

#include <cstdint>
#include <vector>

#include "core/round_protocol.hpp"
#include "geometry/hierarchy.hpp"
#include "gossip/base.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::core {

struct HierarchyProtocolConfig {
  /// Top-level accuracy driving the per-depth eps_at_depth(eps, r).
  double eps = 1e-3;
  /// Leaf size of the practical hierarchy (expected occupancy); the depth
  /// cap is geometry::kMaxDepth.
  double leaf_threshold = geometry::kLeafOccupancy;
};

class HierarchicalAffineProtocol final : public gossip::ValueProtocol {
 public:
  HierarchicalAffineProtocol(const graph::GeometricGraph& graph,
                             std::vector<double> x0, Rng& rng,
                             const HierarchyProtocolConfig& config);

  std::string_view name() const override { return "narayanan-hierarchical"; }
  void on_tick(const sim::Tick& tick) override;

  const geometry::PartitionHierarchy& hierarchy() const noexcept {
    return hierarchy_;
  }

  std::uint64_t far_exchanges() const noexcept { return far_exchanges_; }
  std::uint64_t near_exchanges() const noexcept { return near_exchanges_; }
  std::uint64_t activations() const noexcept { return activations_; }

  /// Counter budget of a square's representative (own-tick units).
  double averaging_time(int square_id) const;

 protected:
  /// Serialized: the paper's per-node state machine (local/global on,
  /// counters), per-square activity and the exchange counters.  NOT
  /// serialized: the hierarchy, leaf-peer CSR, budgets and Far rates (all
  /// deterministic ctor products of the same configuration) and the hop
  /// tables (deterministic greedy routes — cold tables recompute identical
  /// hop counts).
  void snapshot_scratch(SnapshotWriter& w) const override;
  void restore_scratch(SnapshotReader& r) override;

 private:
  void activate_square(int square_id);
  void deactivate_square(int square_id);
  void near(graph::NodeId node);
  void far(graph::NodeId node, int square_id);
  void compute_budgets();

  HierarchyProtocolConfig config_;
  geometry::PartitionHierarchy hierarchy_;

  // Per-node protocol state (paper §4.2).
  std::vector<std::uint8_t> local_on_;
  std::vector<std::uint8_t> global_on_;
  std::vector<std::uint32_t> counter_;

  // Same-leaf neighbour lists (CSR).  Near fires on a large share of all
  // ticks; picking a uniform in-leaf neighbour from a precomputed list is
  // one RNG draw instead of a reservoir pass over the whole
  // neighbourhood (an RNG draw per in-leaf candidate).
  std::vector<std::uint64_t> leaf_peer_start_;
  std::vector<graph::NodeId> leaf_peers_;

  // Per-square derived quantities.
  std::vector<double> t_avg_;        ///< bottom-up averaging latency
  std::vector<double> p_far_;        ///< per-tick Far probability of the rep
  std::vector<std::uint32_t> budget_;
  std::vector<std::uint8_t> square_active_;  ///< children currently on

  SquareHopTables hops_;

  std::uint64_t far_exchanges_ = 0;
  std::uint64_t near_exchanges_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_HIERARCHY_PROTOCOL_HPP
