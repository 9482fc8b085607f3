// Tests for the baseline protocols: Boyd pairwise, Dimakis geographic with
// rejection sampling, and path averaging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "gossip/geographic.hpp"
#include "gossip/pairwise.hpp"
#include "gossip/path_averaging.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "stats/histogram.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace geogossip::gossip {
namespace {

using graph::GeometricGraph;
using graph::NodeId;

// ------------------------------------------------------------- Pairwise ----

TEST(Pairwise, ConservesSumExactly) {
  const auto g = make_graph(300, 90);
  Rng rng(91);
  auto x0 = make_field(g, rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);
  PairwiseGossip protocol(g, x0, rng);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 50000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-9);
}

TEST(Pairwise, ConvergesToTheInitialMean) {
  const auto g = make_graph(200, 92);
  Rng rng(93);
  std::vector<double> x0(g.node_count());
  for (auto& v : x0) v = rng.uniform(0.0, 10.0);
  const double mean0 = std::accumulate(x0.begin(), x0.end(), 0.0) /
                       static_cast<double>(x0.size());
  PairwiseGossip protocol(g, x0, rng);
  sim::RunConfig config;
  config.epsilon = 1e-4;
  config.max_ticks = 50'000'000;
  const auto result = sim::run_to_epsilon(protocol, rng, config);
  ASSERT_TRUE(result.converged);
  for (const double v : protocol.values()) {
    EXPECT_NEAR(v, mean0, 2e-2);
  }
}

TEST(Pairwise, ChargesTwoTransmissionsPerExchange) {
  const auto g = make_graph(100, 94);
  Rng rng(95);
  auto x0 = make_field(g, rng);
  PairwiseGossip protocol(g, x0, rng);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 1000; ++i) protocol.on_tick(clock.next());
  EXPECT_EQ(protocol.meter().total(),
            2u * (1000u - protocol.isolated_ticks()));
}

TEST(Pairwise, IsolatedNodesAreSkippedNotCrashed) {
  // One node far away from everyone.
  std::vector<geometry::Vec2> points{{0.1, 0.1}, {0.12, 0.1}, {0.9, 0.9}};
  const GeometricGraph g(points, 0.05);
  Rng rng(96);
  PairwiseGossip protocol(g, {1.0, 2.0, 3.0}, rng);
  sim::Tick tick;
  tick.node = 2;  // the isolated one
  protocol.on_tick(tick);
  EXPECT_EQ(protocol.isolated_ticks(), 1u);
  EXPECT_DOUBLE_EQ(protocol.values()[2], 3.0);
}

// ----------------------------------------------------------- Geographic ----

TEST(Geographic, ConservesSumUnderAtomicCommit) {
  const auto g = make_graph(400, 97);
  Rng rng(98);
  auto x0 = make_field(g, rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);
  GeographicGossip protocol(g, x0, rng);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 5000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-9);
  EXPECT_GT(protocol.exchanges(), 0u);
}

TEST(Geographic, ConvergesFasterThanPairwisePerExchangeCount) {
  // Long-range mixing: geographic needs far fewer *exchanges* (ticks) than
  // pairwise on the same graph, even though each costs more transmissions.
  // The effect requires a mixing-limited graph: near the connectivity
  // threshold (multiplier 1.2), T_mix ~ n / log n dominates pairwise
  // gossip, while uniform-pair sampling mixes in O(1).
  Rng rng_g(99);
  const auto g = graph::GeometricGraph::sample(1500, 1.2, rng_g);
  Rng rng_a(100);
  Rng rng_b(101);
  auto x0 = make_field(g, rng_a);

  sim::RunConfig config;
  config.epsilon = 1e-2;
  config.max_ticks = 100'000'000;

  PairwiseGossip pairwise(g, x0, rng_a);
  const auto result_pairwise = sim::run_to_epsilon(pairwise, rng_a, config);
  GeographicGossip geographic(g, x0, rng_b);
  const auto result_geo = sim::run_to_epsilon(geographic, rng_b, config);

  ASSERT_TRUE(result_pairwise.converged);
  ASSERT_TRUE(result_geo.converged);
  EXPECT_LT(result_geo.ticks * 3, result_pairwise.ticks);
}

TEST(Geographic, ChargesRoutedHops) {
  const auto g = make_graph(500, 102);
  Rng rng(103);
  auto x0 = make_field(g, rng);
  GeographicGossip protocol(g, x0, rng);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 200; ++i) protocol.on_tick(clock.next());
  // All traffic is long-range.
  EXPECT_EQ(protocol.meter().snapshot()[sim::TxCategory::kLocal], 0u);
  EXPECT_GT(protocol.meter().snapshot()[sim::TxCategory::kLongRange], 0u);
  // Each completed exchange needs at least 2 hops on average at this size.
  EXPECT_GT(protocol.meter().total(), 2 * protocol.exchanges());
}

TEST(Geographic, RejectionSamplingImprovesTargetUniformity) {
  const auto g = make_graph(600, 104);
  constexpr std::uint64_t kSamples = 40000;

  const auto measure_tv = [&](bool rejection, std::uint64_t seed) {
    Rng rng(seed);
    GeographicOptions options;
    options.rejection_sampling = rejection;
    std::vector<double> x0(g.node_count(), 0.0);
    GeographicGossip protocol(g, x0, rng, options);
    std::vector<std::uint64_t> counts(g.node_count(), 0);
    for (std::uint64_t s = 0; s < kSamples; ++s) {
      const auto src = static_cast<NodeId>(rng.below(g.node_count()));
      const NodeId target = protocol.sample_target(src);
      if (target != src) ++counts[target];
    }
    return stats::tv_distance_from_uniform(counts);
  };

  const double tv_raw = measure_tv(false, 105);
  const double tv_rejected = measure_tv(true, 106);
  EXPECT_LT(tv_rejected, tv_raw);
}

TEST(Geographic, AcceptanceWeightsAreProbabilities) {
  const auto g = make_graph(300, 107);
  Rng rng(108);
  GeographicGossip protocol(g, std::vector<double>(g.node_count(), 0.0), rng);
  const auto& acceptance = protocol.acceptance();
  ASSERT_EQ(acceptance.size(), g.node_count());
  double min_acc = 1.0;
  for (const double a : acceptance) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
    min_acc = std::min(min_acc, a);
  }
  EXPECT_LT(min_acc, 1.0);  // somebody has an oversized Voronoi cell
}

TEST(Geographic, AcceptanceReferenceIsTheCommittedQuantile) {
  // With the minimum estimate as the reference, one node or two accepted
  // for sure and the mean acceptance was about 0.05 at this size.
  const auto g = make_graph(4096, 112);
  Rng rng(113);
  GeographicGossip protocol(g, std::vector<double>(g.node_count(), 0.0), rng);
  const auto& acceptance = protocol.acceptance();
  const auto sure = std::count(acceptance.begin(), acceptance.end(), 1.0);
  EXPECT_GE(static_cast<double>(sure),
            GeographicGossip::kReferenceQuantile *
                static_cast<double>(g.node_count()));
  const double mean =
      std::accumulate(acceptance.begin(), acceptance.end(), 0.0) /
      static_cast<double>(acceptance.size());
  EXPECT_GE(mean, 0.25);
}

TEST(Geographic, DisabledRejectionSamplingSkipsEstimation) {
  const auto g = make_graph(100, 109);
  Rng rng(110);
  GeographicOptions options;
  options.rejection_sampling = false;
  GeographicGossip protocol(g, std::vector<double>(g.node_count(), 0.0), rng,
                            options);
  EXPECT_TRUE(protocol.acceptance().empty());
}

// ------------------------------------------------------- PathAveraging ----

TEST(PathAveraging, ConservesSum) {
  const auto g = make_graph(400, 111);
  Rng rng(112);
  auto x0 = make_field(g, rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);
  PathAveragingGossip protocol(g, x0, rng);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 5000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-9);
  EXPECT_GT(protocol.rounds(), 0u);
  EXPECT_GT(protocol.mean_path_length(), 2.0);
}

TEST(PathAveraging, PathBecomesConstantAfterRound) {
  const auto g = make_graph(300, 113);
  Rng rng(114);
  auto x0 = make_field(g, rng);
  PathAveragingGossip protocol(g, x0, rng);
  // Drive ticks until one round happens, then verify values changed.
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  while (protocol.rounds() == 0) protocol.on_tick(clock.next());
  EXPECT_GT(protocol.meter().total(), 0u);
}

TEST(PathAveraging, NeedsFewerTransmissionsThanGeographic) {
  // Path averaging mixes whole routes per round; at equal epsilon it should
  // not lose to plain geographic gossip in total transmissions.
  const auto g = make_graph(800, 115);
  Rng rng_a(116);
  Rng rng_b(117);
  auto x0 = make_field(g, rng_a);
  sim::RunConfig config;
  config.epsilon = 1e-2;
  config.max_ticks = 100'000'000;

  GeographicGossip geographic(g, x0, rng_a);
  const auto result_geo = sim::run_to_epsilon(geographic, rng_a, config);
  PathAveragingGossip path(g, x0, rng_b);
  const auto result_path = sim::run_to_epsilon(path, rng_b, config);

  ASSERT_TRUE(result_geo.converged);
  ASSERT_TRUE(result_path.converged);
  EXPECT_LT(result_path.transmissions.total(),
            result_geo.transmissions.total());
}

}  // namespace
}  // namespace geogossip::gossip
