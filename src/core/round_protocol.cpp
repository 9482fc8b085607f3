#include "core/round_protocol.hpp"

#include <algorithm>
#include <cmath>

#include "core/affine.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"

namespace geogossip::core {

geometry::HierarchyConfig practical_hierarchy(double leaf_threshold,
                                              int max_depth) {
  geometry::HierarchyConfig h;
  h.threshold = geometry::HierarchyConfig::Threshold::kPractical;
  h.leaf_occupancy = leaf_threshold;
  h.max_depth = max_depth;
  return h;
}

std::uint32_t RouteHopCache::hops(graph::NodeId from, graph::NodeId to) {
  const auto key = std::minmax(from, to);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const auto route = routing::route_to_node(*graph_, key.first, key.second);
  std::uint32_t hops = route.hops;
  if (!route.arrived()) {
    const double dist = geometry::distance(graph_->position(key.first),
                                           graph_->position(key.second));
    hops += static_cast<std::uint32_t>(std::ceil(dist / graph_->radius()));
  }
  cache_.emplace(key, hops);
  return hops;
}

std::string_view leaf_cost_model_name(LeafCostModel model) noexcept {
  switch (model) {
    case LeafCostModel::kGrgMixing:
      return "grg-mixing";
    case LeafCostModel::kQuadratic:
      return "quadratic";
    case LeafCostModel::kMeasured:
      return "measured";
  }
  return "?";
}

std::string_view beta_mode_name(BetaMode mode) noexcept {
  switch (mode) {
    case BetaMode::kExpected:
      return "expected(2E#/5)";
    case BetaMode::kActualHarmonic:
      return "harmonic(2HM/5)";
    case BetaMode::kConvexRep:
      return "convex(1/2)";
  }
  return "?";
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
                                double side_over_radius, double eps,
                                double constant) {
  GG_CHECK_ARG(m >= 1, "charged_leaf_cost: m >= 1");
  GG_CHECK_ARG(eps > 0.0 && eps < 1.0, "charged_leaf_cost: eps in (0,1)");
  GG_CHECK_ARG(constant > 0.0, "charged_leaf_cost: constant > 0");
  if (m == 1) return 0;  // nothing to average

  const double mm = static_cast<double>(m);
  const double log_term = std::log(mm / eps);
  double exchanges = 0.0;
  switch (model) {
    case LeafCostModel::kGrgMixing: {
      const double mixing = std::max(1.0, side_over_radius * side_over_radius);
      exchanges = constant * mm * mixing * log_term;
      break;
    }
    case LeafCostModel::kQuadratic:
      exchanges = constant * mm * mm * log_term;
      break;
    case LeafCostModel::kMeasured:
      throw ArgumentError(
          "charged_leaf_cost: kMeasured is simulated, not charged");
  }
  // Each nearest-neighbour exchange is 2 transmissions.
  return static_cast<std::uint64_t>(std::llround(2.0 * exchanges));
}

}  // namespace geogossip::core
