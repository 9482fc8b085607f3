#include "core/round_protocol.hpp"

#include <algorithm>
#include <cmath>

#include "core/affine.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"

namespace geogossip::core {

namespace {

/// Marks a table entry whose route has not been taken yet.
constexpr std::uint32_t kUnrouted = UINT32_MAX;
constexpr std::uint64_t kUnroutedSum = UINT64_MAX;

/// Entries of a triangular table over `k` slots: one per unordered pair.
std::uint64_t pair_count(std::uint64_t k) { return k * (k - 1) / 2; }

}  // namespace

SquareHopTables::SquareHopTables(const graph::GeometricGraph& graph,
                                 const geometry::PartitionHierarchy& hierarchy)
    : graph_(&graph), root_(hierarchy.root()) {
  const std::size_t squares = hierarchy.square_count();
  representative_.assign(squares, 0);
  slot_start_.assign(squares + 1, 0);
  pair_start_.assign(squares + 1, 0);
  fan_out_.assign(squares, kUnroutedSum);
  for (std::size_t id = 0; id < squares; ++id) {
    const auto& square = hierarchy.square(static_cast<int>(id));
    if (square.representative >= 0) {
      representative_[id] = static_cast<graph::NodeId>(square.representative);
    }
    for (const int child : square.children) {
      if (hierarchy.square(child).representative >= 0) {
        slot_square_.push_back(child);
      }
    }
    slot_start_[id + 1] = static_cast<std::uint32_t>(slot_square_.size());
    pair_start_[id + 1] =
        pair_start_[id] + pair_count(slot_start_[id + 1] - slot_start_[id]);
  }
  pair_hops_.assign(pair_start_.back(), kUnrouted);
}

std::uint32_t SquareHopTables::route_hops(graph::NodeId a,
                                          graph::NodeId b) const {
  const auto [from, to] = std::minmax(a, b);
  const auto route = routing::route_to_node(*graph_, from, to);
  if (route.arrived()) return route.hops;
  // Summed and capped below the unrouted marker in double: at a tiny
  // radius the estimate alone overflows the cast.
  const double dist =
      geometry::distance(graph_->position(from), graph_->position(to));
  const double charged =
      static_cast<double>(route.hops) + std::ceil(dist / graph_->radius());
  return static_cast<std::uint32_t>(
      std::min(charged, static_cast<double>(kUnrouted - 1)));
}

std::uint32_t SquareHopTables::route_pair(std::size_t s, std::size_t lo,
                                          std::size_t hi) const {
  const auto rep = [&](std::size_t slot) {
    return representative_[static_cast<std::size_t>(
        slot_square_[slot_start_[s] + slot])];
  };
  return route_hops(rep(lo), rep(hi));
}

std::uint32_t SquareHopTables::sibling_hops(int square, std::size_t i,
                                            std::size_t j) {
  const auto s = static_cast<std::size_t>(square);
  const std::size_t slot_count = slot_start_[s + 1] - slot_start_[s];
  GG_CHECK(i != j && i < slot_count && j < slot_count,
           "sibling_hops: slots out of range");
  const auto [lo, hi] = std::minmax(i, j);
  std::uint32_t* const table = pair_hops_.data() + pair_start_[s];
  std::uint32_t& hops = table[pair_count(hi) + lo];
  if (hops == kUnrouted) {
    if (square == root_) {
      hops = route_pair(s, lo, hi);
    } else {
      // The whole table, in slot order: entry pair_count(b) + a is the
      // pair (a, b), a < b.
      for (std::size_t b = 1; b < slot_count; ++b) {
        for (std::size_t a = 0; a < b; ++a) {
          table[pair_count(b) + a] = route_pair(s, a, b);
        }
      }
    }
  }
  return hops;
}

std::uint64_t SquareHopTables::fan_out_hops(int square) {
  const auto s = static_cast<std::size_t>(square);
  std::uint64_t& sum = fan_out_[s];
  if (sum == kUnroutedSum) {
    sum = 0;
    for (const int child : slots(square)) {
      sum += route_hops(representative_[s],
                        representative_[static_cast<std::size_t>(child)]);
    }
  }
  return sum;
}

double exchange_beta(BetaMode mode, double expected_occupancy,
                     std::size_t occupancy_i, std::size_t occupancy_j) {
  GG_CHECK_ARG(occupancy_i >= 1 && occupancy_j >= 1,
               "exchange_beta: empty squares cannot exchange");
  switch (mode) {
    case BetaMode::kExpected:
      return far_beta(expected_occupancy);
    case BetaMode::kActualHarmonic: {
      const double mi = static_cast<double>(occupancy_i);
      const double mj = static_cast<double>(occupancy_j);
      return kBetaFraction * (2.0 * mi * mj / (mi + mj));
    }
    case BetaMode::kConvexRep:
      return 0.5;
  }
  throw ArgumentError("exchange_beta: bad mode");
}

std::uint64_t charged_leaf_cost(LeafCostModel model, std::size_t m,
                                double side_over_radius, double eps) {
  GG_CHECK_ARG(m >= 1, "charged_leaf_cost: m >= 1");
  GG_CHECK_ARG(eps > 0.0 && eps < 1.0, "charged_leaf_cost: eps in (0,1)");
  if (m == 1) return 0;  // nothing to average

  const double mm = static_cast<double>(m);
  const double log_term = std::log(mm / eps);
  double exchanges = 0.0;
  switch (model) {
    case LeafCostModel::kGrgMixing: {
      const double mixing = std::max(1.0, side_over_radius * side_over_radius);
      exchanges = mm * mixing * log_term;
      break;
    }
    case LeafCostModel::kQuadratic:
      exchanges = mm * mm * log_term;
      break;
  }
  // Each nearest-neighbour exchange is 2 transmissions.
  return static_cast<std::uint64_t>(std::llround(2.0 * exchanges));
}

}  // namespace geogossip::core
