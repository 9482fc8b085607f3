// Fully decentralized affine gossip — the paper's §8 open problem,
// implemented as an extension and evaluated in experiment E11.
//
// "It would be interesting to study whether affine combinations can be
//  used to develop a completely decentralized algorithm for Geographic
//  Gossip that is also energy efficient."  (§8)
//
// Construction: drop ALL control (no states, no counters, no
// Activate/Deactivate, no representatives).  Every sensor derives its
// square from its own position (the same sqrt(n)-square partition every
// sensor can compute from n, which is known at deployment), and each
// square's occupancy is learned once at setup by a local count (setup
// cost, like the Dimakis weight estimation).  On each tick a sensor
//   - with probability far_probability: samples a uniform position inside
//     a uniform OTHER square, greedily routes there, and applies the
//     mirrored affine jump with gain beta = (2/5) * harmonic(m_own,
//     m_other) against the node the packet landed on;
//   - otherwise: performs a Near exchange inside its own square.
// The paper's control machinery exists to guarantee that a square finishes
// re-averaging before its next long-range exchange; without it an Omega(
// sqrt(n)) jump parked on one sensor gets re-amplified by the next jump
// before background averaging spreads it, and the system diverges (the
// instability §1.2 warns about).  Two decentralized counter-measures keep
// it stable:
//   1. rate separation — far_probability ~ 1 / (separation * m * log m)
//      makes in-square averaging much faster than the jump arrival rate;
//   2. neighbourhood dilution — immediately after a jump, each endpoint
//      averages with its one-hop in-square neighbours (a local gather +
//      broadcast, no control), cutting the parked residual by ~degree.
// E11 sweeps the separation factor to locate the stability boundary —
// answering §8 with "yes, at a constant-factor premium, provided the rate
// separation holds".
#ifndef GEOGOSSIP_CORE_DECENTRALIZED_HPP
#define GEOGOSSIP_CORE_DECENTRALIZED_HPP

#include <cstdint>
#include <vector>

#include "gossip/base.hpp"
#include "graph/geometric_graph.hpp"

namespace geogossip::core {

struct DecentralizedConfig {
  /// Per-tick probability of attempting a long-range affine exchange.
  /// 0 = derive from `separation` (recommended).
  double far_probability = 0.0;
  /// When far_probability == 0: p_far = 1 / (separation * m * ln(m + 1)),
  /// m = expected square occupancy — larger separation, more stability.
  double separation = 4.0;
  /// Post-jump neighbourhood dilution (see header); disable to observe the
  /// raw instability.
  bool dilute_jumps = true;
};

class DecentralizedAffineGossip final : public gossip::ValueProtocol {
 public:
  DecentralizedAffineGossip(const graph::GeometricGraph& graph,
                            std::vector<double> x0, Rng& rng,
                            const DecentralizedConfig& config = {});

  std::string_view name() const override { return "affine-decentralized"; }
  void on_tick(const sim::Tick& tick) override;

  double far_probability() const noexcept { return far_probability_; }
  std::uint64_t far_exchanges() const noexcept { return far_exchanges_; }
  std::uint64_t near_exchanges() const noexcept { return near_exchanges_; }
  int square_count() const noexcept { return side_ * side_; }

 protected:
  /// Only the exchange counters are trajectory state; the occupancy grid,
  /// peer CSR and far probability are deterministic ctor products.
  void snapshot_scratch(SnapshotWriter& w) const override;
  void restore_scratch(SnapshotReader& r) override;

 private:
  void near(graph::NodeId node);
  void far(graph::NodeId node);
  void dilute(graph::NodeId node);

  DecentralizedConfig config_;
  /// The region is cut into side_ x side_ squares (paper_subsquare_count).
  int side_;
  std::vector<std::uint16_t> square_of_;       ///< node -> flat square id
  std::vector<std::uint32_t> occupancy_;       ///< per-square sensor count
  std::vector<std::uint32_t> nonempty_squares_;
  /// Per-node [node, in-square one-hop neighbours...] (CSR).  Near picks a
  /// uniform entry after the self slot (one RNG draw instead of a
  /// reservoir pass with a draw per in-square candidate); dilute averages
  /// the whole slice in place.
  std::vector<std::uint64_t> square_peer_start_;
  std::vector<graph::NodeId> square_peers_;
  double far_probability_ = 0.0;
  std::uint64_t far_exchanges_ = 0;
  std::uint64_t near_exchanges_ = 0;
};

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_DECENTRALIZED_HPP
