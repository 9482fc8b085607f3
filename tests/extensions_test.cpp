// Tests for the extensions: the spanning-tree centralized floor and the §8
// decentralized affine gossip variant.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/convergence.hpp"
#include "core/decentralized.hpp"
#include "core/schedule.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace geogossip {
namespace {

// ---------------------------------------------------------- SpanningTree ----

TEST(SpanningTree, FloorFormula) {
  EXPECT_EQ(core::spanning_tree_floor(1), 0u);
  EXPECT_EQ(core::spanning_tree_floor(2), 2u);
  EXPECT_EQ(core::spanning_tree_floor(1000), 1998u);
}

TEST(SpanningTree, BeatsEveryGossipProtocolOnTransmissions) {
  const auto g = make_graph(512, 953);
  Rng rng(954);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);

  core::TrialOptions options;
  options.eps = 1e-2;
  Rng trial_rng(955);
  const auto gossip_outcome = core::run_protocol_trial(
      core::ProtocolKind::kPathAveraging, g, x0, trial_rng, options);
  ASSERT_TRUE(gossip_outcome.converged);
  // Even the cheapest gossip protocol costs multiples of the tree floor.
  EXPECT_GT(gossip_outcome.transmissions.total(),
            2 * core::spanning_tree_floor(g.node_count()));
}

// -------------------------------------------------------- Decentralized ----

TEST(Decentralized, ConvergesWithDefaultSeparation) {
  const auto g = make_graph(1024, 956);
  Rng rng(957);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);

  core::DecentralizedAffineGossip protocol(g, x0, rng, {});
  sim::RunConfig run;
  run.epsilon = 1e-2;
  run.max_ticks = 200'000'000;
  const auto result = sim::run_to_epsilon(protocol, rng, run);
  EXPECT_TRUE(result.converged) << result.to_string();
  EXPECT_GT(protocol.far_exchanges(), 0u);
  EXPECT_GT(protocol.near_exchanges(), protocol.far_exchanges());
}

TEST(Decentralized, ConservesSum) {
  const auto g = make_graph(512, 958);
  Rng rng(959);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);
  core::DecentralizedAffineGossip protocol(g, x0, rng, {});
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 1'000'000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-8);
}

TEST(Decentralized, UsesNoControlTransmissions) {
  const auto g = make_graph(512, 960);
  Rng rng(961);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  core::DecentralizedAffineGossip protocol(g, x0, rng, {});
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  for (int i = 0; i < 200'000; ++i) protocol.on_tick(clock.next());
  EXPECT_EQ(protocol.meter().snapshot()[sim::TxCategory::kControl], 0u);
  EXPECT_GT(protocol.meter().snapshot()[sim::TxCategory::kLocal], 0u);
  EXPECT_GT(protocol.meter().snapshot()[sim::TxCategory::kLongRange], 0u);
}

TEST(Decentralized, FarProbabilityFollowsSeparationRule) {
  const auto g = make_graph(1024, 962);
  Rng rng(963);
  core::DecentralizedConfig config;
  config.separation = 4.0;
  core::DecentralizedAffineGossip protocol(
      g, std::vector<double>(g.node_count(), 0.0), rng, config);
  const double m = static_cast<double>(g.node_count()) /
                   static_cast<double>(protocol.square_count());
  EXPECT_NEAR(protocol.far_probability(),
              1.0 / (4.0 * m * std::log(m + 1.0)), 1e-12);

  core::DecentralizedConfig fixed;
  fixed.far_probability = 0.125;
  core::DecentralizedAffineGossip explicit_p(
      g, std::vector<double>(g.node_count(), 0.0), rng, fixed);
  EXPECT_DOUBLE_EQ(explicit_p.far_probability(), 0.125);
}

TEST(Decentralized, TooAggressiveSeparationDegradesConvergence) {
  // The §8 stability story: firing affine jumps faster than squares can
  // re-average must hurt.  Compare final error at equal tick budgets.
  const auto g = make_graph(1024, 964);
  Rng rng_seed(965);
  auto x0 = sim::gaussian_field(g.node_count(), rng_seed);
  sim::center_and_normalize(x0);

  const auto error_with = [&](double far_probability, bool dilute) {
    Rng rng(966);
    core::DecentralizedConfig config;
    config.far_probability = far_probability;  // 0 = separation rule
    config.dilute_jumps = dilute;
    core::DecentralizedAffineGossip protocol(g, x0, rng, config);
    sim::RunConfig run;
    run.epsilon = 1e-12;  // never reached: run the full budget
    run.max_ticks = 3'000'000;
    return sim::run_to_epsilon(protocol, rng, run).final_error;
  };

  const double stable = error_with(0.0, true);
  // Jumps nearly every tick, no dilution: squares never re-average between
  // jumps, the residual gets re-amplified — the raw §1.2 instability.
  const double aggressive = error_with(0.45, false);
  EXPECT_LT(stable, 1e-3);
  // Divergence can overflow all the way to inf/NaN — that counts.
  EXPECT_TRUE(std::isnan(aggressive) || aggressive > 100.0 * stable)
      << "aggressive=" << aggressive;
}

TEST(Decentralized, IntegratesWithTheTrialHarness) {
  const auto g = make_graph(512, 967);
  Rng rng(968);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);
  core::TrialOptions options;
  options.eps = 3e-2;
  const auto outcome = core::run_protocol_trial(
      core::ProtocolKind::kAffineDecentralized, g, x0, rng, options);
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.sum_drift, 1e-8);
}

TEST(Decentralized, Validation) {
  const auto g = make_graph(64, 969);
  Rng rng(970);
  core::DecentralizedConfig config;
  config.separation = 0.0;
  EXPECT_THROW(core::DecentralizedAffineGossip(
                   g, std::vector<double>(g.node_count(), 0.0), rng, config),
               ArgumentError);
}

}  // namespace
}  // namespace geogossip
