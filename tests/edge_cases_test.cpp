// Edge-case and failure-path coverage that the per-module suites leave
// open: degenerate deployments, zero-convergence aggregation, file-backed
// CSV, protocol behaviour on pathological graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/convergence.hpp"
#include "core/decentralized.hpp"
#include "core/hierarchy_protocol.hpp"
#include "exp/runner.hpp"
#include "geometry/sampling.hpp"
#include "gossip/pairwise.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace geogossip {
namespace {

using geometry::Vec2;
using graph::GeometricGraph;

// --------------------------------------------------------- tiny graphs ----

TEST(EdgeCases, TwoNodeGraphEverythingWorks) {
  const std::vector<Vec2> points{{0.4, 0.5}, {0.6, 0.5}};
  const GeometricGraph g(points, 0.5);
  ASSERT_TRUE(graph::is_connected(g.adjacency()));

  Rng rng(2000);
  core::TrialOptions options;
  options.eps = 1e-6;
  const auto outcome = core::run_protocol_trial(
      core::ProtocolKind::kBoydPairwise, g, {1.0, 3.0}, rng, options);
  EXPECT_TRUE(outcome.converged);
}

// -------------------------------------------------- zero-convergence agg ----

TEST(EdgeCases, SweepPointHandlesTotalNonConvergence) {
  exp::Scenario scenario;
  scenario.name = "hopeless";
  scenario.replicates = 3;
  scenario.master_seed = 2001;
  exp::Cell& cell = scenario.add(core::ProtocolKind::kBoydPairwise, 256);
  cell.radius_multiplier = 2.0;
  cell.options.eps = 1e-9;
  cell.options.max_ticks = 100;  // hopeless
  exp::RunnerOptions options;
  options.threads = 3;
  const auto summary = exp::Runner(options).run(scenario);
  ASSERT_EQ(summary.cells.size(), 1u);
  EXPECT_EQ(summary.cells[0].replicates, 3u);
  EXPECT_DOUBLE_EQ(summary.cells[0].converged_fraction, 0.0);
  EXPECT_DOUBLE_EQ(summary.cells[0].median_tx, 0.0);
}

// ------------------------------------------------------- file-backed CSV ----

TEST(EdgeCases, CsvWriterRoundTripsThroughAFile) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "geogossip_csv_test.csv")
          .string();
  {
    CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.field(std::int64_t{1}).field("x,y").end_row();
  }
  EXPECT_EQ(slurp(path), "a,b\n1,\"x,y\"\n");
  std::remove(path.c_str());
  EXPECT_THROW(CsvWriter("/nonexistent-dir/nope.csv"), ArgumentError);
}

// ---------------------------------------- protocols on hostile networks ----

TEST(EdgeCases, AsyncProtocolSurvivesClusteredDeployment) {
  Rng rng(2002);
  auto points = geometry::sample_clustered(
      600, geometry::Rect::unit_square(), 3, 0.06, rng);
  const GeometricGraph g(std::move(points), 0.25);
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);

  core::HierarchyProtocolConfig config;
  config.eps = 1e-1;
  core::HierarchicalAffineProtocol protocol(g, x0, rng, config);
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  const double sum0 = protocol.value_sum();
  for (int i = 0; i < 500'000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-7);
  // No NaN/inf leaked into the state.
  for (const double v : protocol.values()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(EdgeCases, DecentralizedSurvivesEmptySquares) {
  // Clustered deployment leaves many grid squares empty; the protocol must
  // only ever target non-empty ones and never stall.
  Rng rng(2003);
  auto points = geometry::sample_clustered(
      500, geometry::Rect::unit_square(), 2, 0.05, rng);
  const GeometricGraph g(std::move(points), 0.3);
  auto x0 = sim::gaussian_field(g.node_count(), rng);

  core::DecentralizedAffineGossip protocol(g, x0, rng, {});
  sim::AsyncClock clock(static_cast<std::uint32_t>(g.node_count()), rng);
  const double sum0 = protocol.value_sum();
  for (int i = 0; i < 300'000; ++i) protocol.on_tick(clock.next());
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-7);
  EXPECT_GT(protocol.far_exchanges(), 0u);
}

TEST(EdgeCases, PairwiseOnStarGraphConverges) {
  // A hub with spokes: extreme degree asymmetry.
  std::vector<Vec2> points{{0.5, 0.5}};
  for (int k = 0; k < 12; ++k) {
    const double angle = 2.0 * 3.14159265358979 * k / 12.0;
    points.push_back({0.5 + 0.04 * std::cos(angle),
                      0.5 + 0.04 * std::sin(angle)});
  }
  const GeometricGraph g(std::move(points), 0.05);
  Rng rng(2004);
  std::vector<double> x0(g.node_count(), 0.0);
  x0[0] = 13.0;
  gossip::PairwiseGossip protocol(g, x0, rng);
  sim::RunConfig run;
  run.epsilon = 1e-3;
  run.max_ticks = 10'000'000;
  const auto result = sim::run_to_epsilon(protocol, rng, run);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(protocol.values()[3], 1.0, 0.1);
}

// ----------------------------------------------------- hierarchy corners ----

TEST(EdgeCases, HierarchyWithAllPointsInOneCorner) {
  Rng rng(2005);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)});
  }
  geometry::HierarchyConfig config;
  config.leaf_occupancy = 20.0;
  const geometry::PartitionHierarchy h(points, config);
  // Nearly every square is empty, but invariants still hold.
  EXPECT_GT(h.empty_squares(), 0);
  std::size_t members = 0;
  for (const int leaf : h.leaves()) {
    members += h.square(leaf).occupancy();
  }
  EXPECT_EQ(members, points.size());
  // Multilevel still averages this pathological deployment.
  const GeometricGraph g(points, 0.03);
  if (graph::is_connected(g.adjacency())) {
    auto x0 = sim::gaussian_field(g.node_count(), rng);
    sim::center_and_normalize(x0);
    core::MultilevelConfig mconfig;
    mconfig.eps = 1e-2;
    core::MultilevelAffineGossip protocol(g, x0, rng, mconfig);
    const auto result = protocol.run();
    EXPECT_TRUE(result.converged);
  }
}

}  // namespace
}  // namespace geogossip
