#include "core/decentralized.hpp"

#include <cmath>
#include <span>

#include "core/affine.hpp"
#include "core/round_protocol.hpp"
#include "geometry/grid.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/snapshot.hpp"

namespace geogossip::core {

using geometry::Vec2;
using graph::NodeId;

DecentralizedAffineGossip::DecentralizedAffineGossip(
    const graph::GeometricGraph& graph, std::vector<double> x0, Rng& rng,
    const DecentralizedConfig& config)
    : ValueProtocol(graph, std::move(x0), rng),
      config_(config),
      side_(static_cast<int>(std::llround(std::sqrt(static_cast<double>(
          geometry::paper_subsquare_count(
              static_cast<double>(graph.node_count()))))))) {
  GG_CHECK_ARG(config.separation > 0.0, "separation must be positive");

  const std::size_t n = graph.node_count();
  square_of_.resize(n);
  occupancy_.assign(static_cast<std::size_t>(square_count()), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int cell = graph.region().subsquare_index(
        graph.position(static_cast<NodeId>(i)), side_);
    GG_CHECK(cell >= 0, "sensor outside the deployment region");
    square_of_[i] = static_cast<std::uint16_t>(cell);
    ++occupancy_[static_cast<std::size_t>(cell)];
  }
  for (std::uint32_t cell = 0;
       cell < static_cast<std::uint32_t>(square_count()); ++cell) {
    if (occupancy_[cell] > 0) nonempty_squares_.push_back(cell);
  }

  // Per-node in-square peer slices, self first (see header).
  square_peer_start_.assign(n + 1, 0);
  square_peers_.reserve(n + 2 * graph.adjacency().edge_count());
  for (std::uint32_t node = 0; node < n; ++node) {
    square_peers_.push_back(node);
    for (const NodeId u : graph.neighbors(node)) {
      if (square_of_[u] == square_of_[node]) square_peers_.push_back(u);
    }
    square_peer_start_[node + 1] = square_peers_.size();
  }
  square_peers_.shrink_to_fit();  // only the in-square subset is kept

  if (config.far_probability > 0.0) {
    far_probability_ = std::min(1.0, config.far_probability);
  } else {
    const double m = static_cast<double>(n) /
                     static_cast<double>(square_count());
    far_probability_ =
        std::min(1.0, 1.0 / (config.separation * m * std::log(m + 1.0)));
  }
}

void DecentralizedAffineGossip::near(NodeId node) {
  // Uniform neighbour inside the own square (self-first peer slice).
  const std::uint64_t begin = square_peer_start_[node];
  const std::uint64_t count = square_peer_start_[node + 1] - begin;
  if (count < 2) return;
  const NodeId chosen = square_peers_[begin + 1 + rng_->below(count - 1)];
  apply_pair_average(node, chosen);
  meter_.add(sim::TxCategory::kLocal, 2);
  ++near_exchanges_;
}

void DecentralizedAffineGossip::dilute(NodeId node) {
  // Local gather + broadcast over the in-square one-hop neighbourhood:
  // every participant ends at the neighbourhood mean.  Cost: one gather
  // and one broadcast transmission per neighbour.
  const std::uint64_t begin = square_peer_start_[node];
  const std::uint64_t count = square_peer_start_[node + 1] - begin;
  if (count < 2) return;
  apply_average(
      std::span<const NodeId>(square_peers_.data() + begin, count));
  meter_.add(sim::TxCategory::kLocal, 2 * (count - 1));
}

void DecentralizedAffineGossip::far(NodeId node) {
  if (nonempty_squares_.size() < 2) return;
  // Uniform non-empty square other than the own one.
  const std::uint16_t home = square_of_[node];
  std::uint32_t target_square = home;
  for (int attempt = 0; attempt < 64 && target_square == home; ++attempt) {
    target_square =
        static_cast<std::uint32_t>(nonempty_squares_[rng_->below(
            nonempty_squares_.size())]);
  }
  if (target_square == home) return;

  // Route to a uniform position inside the target square (a fresh random
  // landing node each time spreads the perturbation load).
  const geometry::Rect target_rect =
      graph_->region().subsquare(static_cast<int>(target_square), side_);
  const Vec2 target{rng_->uniform(target_rect.lo().x, target_rect.hi().x),
                    rng_->uniform(target_rect.lo().y, target_rect.hi().y)};
  const auto there = routing::route_to_position(*graph_, node, target);
  meter_.add(sim::TxCategory::kLongRange, there.hops);
  if (!there.arrived()) return;
  const NodeId peer = there.final_node;
  if (peer == node || square_of_[peer] == home) return;

  // Reply packet back to the initiator (position known from the request).
  const auto back = routing::route_to_node(*graph_, peer, node);
  meter_.add(sim::TxCategory::kLongRange, back.hops);
  if (!back.arrived()) return;  // atomic commit, as in the baselines

  const double beta = exchange_beta(
      BetaMode::kActualHarmonic, 1.0,
      occupancy_[home], occupancy_[square_of_[peer]]);
  apply_affine_jump(node, peer, beta);
  ++far_exchanges_;

  if (config_.dilute_jumps) {
    dilute(node);
    dilute(peer);
  }
}

void DecentralizedAffineGossip::on_tick(const sim::Tick& tick) {
  if (rng_->bernoulli(far_probability_)) {
    far(tick.node);
  } else {
    near(tick.node);
  }
}

void DecentralizedAffineGossip::snapshot_scratch(SnapshotWriter& w) const {
  w.u64(far_exchanges_);
  w.u64(near_exchanges_);
}

void DecentralizedAffineGossip::restore_scratch(SnapshotReader& r) {
  far_exchanges_ = r.u64();
  near_exchanges_ = r.u64();
}

}  // namespace geogossip::core
