// Cross-module property suites: invariants that must hold across sweeps of
// deployments, seeds and configurations (TEST_P-style).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/affine.hpp"
#include "core/convergence.hpp"
#include "core/multilevel.hpp"
#include "core/schedule.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "routing/greedy.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip {
namespace {

using geometry::Vec2;
using graph::GeometricGraph;

// ------------------------------------------------- deployment robustness ----

enum class Deployment { kUniform, kJittered, kClustered };

std::vector<Vec2> deploy(Deployment kind, std::size_t n, Rng& rng) {
  switch (kind) {
    case Deployment::kUniform:
      return geometry::sample_unit_square(n, rng);
    case Deployment::kJittered:
      return geometry::sample_jittered_grid(n, geometry::Rect::unit_square(),
                                            rng);
    case Deployment::kClustered:
      return geometry::sample_clustered(n, geometry::Rect::unit_square(), 5,
                                        0.08, rng);
  }
  throw ArgumentError("bad deployment");
}

class DeploymentProperty : public ::testing::TestWithParam<Deployment> {};

TEST_P(DeploymentProperty, HierarchyInvariantsHoldForEveryDeployment) {
  Rng rng(1200 + static_cast<std::uint64_t>(GetParam()));
  const auto points = deploy(GetParam(), 700, rng);

  geometry::HierarchyConfig config;
  config.leaf_occupancy = 30.0;
  const geometry::PartitionHierarchy h(points, config);

  // (1) Every sensor is in exactly one leaf, and the leaf's rect holds it.
  std::vector<int> leaf_hits(points.size(), 0);
  for (const int leaf : h.leaves()) {
    for (const auto m : h.square(leaf).members) ++leaf_hits[m];
  }
  for (const int hits : leaf_hits) EXPECT_EQ(hits, 1);

  // (2) Areas telescope: children tile the parent exactly.
  for (std::size_t id = 0; id < h.square_count(); ++id) {
    const auto& sq = h.square(static_cast<int>(id));
    if (sq.is_leaf()) continue;
    double child_area = 0.0;
    for (const int child : sq.children) {
      child_area += h.square(child).rect.area();
    }
    EXPECT_NEAR(child_area, sq.rect.area(), 1e-12);
  }

  // (3) Expected occupancies telescope like areas.
  for (std::size_t id = 0; id < h.square_count(); ++id) {
    const auto& sq = h.square(static_cast<int>(id));
    EXPECT_NEAR(sq.expected_occupancy,
                static_cast<double>(points.size()) * sq.rect.area() /
                    h.square(h.root()).rect.area(),
                1e-6);
  }

  // (4) Actual occupancies telescope exactly.
  for (std::size_t id = 0; id < h.square_count(); ++id) {
    const auto& sq = h.square(static_cast<int>(id));
    if (sq.is_leaf()) continue;
    std::size_t total = 0;
    for (const int child : sq.children) {
      total += h.square(child).occupancy();
    }
    EXPECT_EQ(total, sq.occupancy());
  }
}

TEST_P(DeploymentProperty, BucketGridAgreesWithBruteForce) {
  Rng rng(1300 + static_cast<std::uint64_t>(GetParam()));
  const auto points = deploy(GetParam(), 400, rng);
  const geometry::BucketGrid index(points, geometry::Rect::unit_square(),
                                   0.09);
  for (int probe = 0; probe < 30; ++probe) {
    const Vec2 q{rng.next_double(), rng.next_double()};
    const auto nearest = index.nearest(q);
    ASSERT_TRUE(nearest.has_value());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_LE(geometry::distance_sq(points[*nearest], q),
                geometry::distance_sq(points[i], q) + 1e-15);
    }
  }
}

TEST_P(DeploymentProperty, RoutingNeverLoops) {
  Rng rng(1400 + static_cast<std::uint64_t>(GetParam()));
  auto points = deploy(GetParam(), 600, rng);
  const GeometricGraph g(std::move(points), 0.12);
  for (int trial = 0; trial < 60; ++trial) {
    const auto src =
        static_cast<graph::NodeId>(rng.below(g.node_count()));
    const auto dst = static_cast<graph::NodeId>(
        rng.below_excluding(g.node_count(), src));
    std::vector<graph::NodeId> trace;
    routing::RouteOptions options;
    options.trace = &trace;
    (void)routing::route_to_node(g, src, dst, options);
    // Strict distance decrease implies no node repeats.
    std::sort(trace.begin(), trace.end());
    EXPECT_EQ(std::adjacent_find(trace.begin(), trace.end()), trace.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeploymentProperty,
                         ::testing::Values(Deployment::kUniform,
                                           Deployment::kJittered,
                                           Deployment::kClustered),
                         [](const auto& info) {
                           switch (info.param) {
                             case Deployment::kUniform:
                               return "uniform";
                             case Deployment::kJittered:
                               return "jittered";
                             case Deployment::kClustered:
                               return "clustered";
                           }
                           return "?";
                         });

// ------------------------------------------------------- reproducibility ----

TEST(Reproducibility, MultilevelIsDeterministicGivenSeed) {
  const auto run_once = [] {
    Rng rng(4242);
    auto g = GeometricGraph::sample(1024, 1.2, rng);
    auto x0 = sim::gaussian_field(1024, rng);
    sim::center_and_normalize(x0);
    core::MultilevelConfig config;
    config.eps = 1e-2;
    core::MultilevelAffineGossip protocol(g, x0, rng, config);
    const auto result = protocol.run();
    return std::tuple{result.transmissions.total(), result.top_rounds,
                      result.final_error};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Reproducibility, TrialHarnessIsDeterministicGivenSeed) {
  const auto run_once = [] {
    Rng rng(777);
    auto g = GeometricGraph::sample(512, 1.2, rng);
    auto x0 = sim::gaussian_field(512, rng);
    sim::center_and_normalize(x0);
    core::TrialOptions options;
    options.eps = 3e-2;
    Rng trial_rng(778);
    const auto outcome = core::run_protocol_trial(
        core::ProtocolKind::kDimakisGeographic, g, x0, trial_rng, options);
    return outcome.transmissions.total();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------- long-run conservation ----

TEST(Conservation, MixedUpdateSequencePreservesSumToFpAccuracy) {
  // A long random interleaving of every update primitive the protocols
  // use must conserve the total mass to floating-point accuracy.
  Rng rng(1500);
  constexpr std::size_t kN = 256;
  std::vector<double> x(kN);
  for (auto& v : x) v = rng.uniform(-10.0, 10.0);
  const double sum0 = std::accumulate(x.begin(), x.end(), 0.0);

  // Non-convex jumps amplify pair differences (that is their point), so
  // the magnitudes grow along the run; bound the growth so doubles never
  // overflow and scale the FP tolerance to the attained magnitude.
  for (int step = 0; step < 20000; ++step) {
    const std::size_t i = rng.below(kN);
    const std::size_t j = rng.below_excluding(kN, i);
    switch (rng.below(4)) {
      case 0:  // convex average
        core::affine_pair_update(x[i], x[j], 0.5, 0.5);
        break;
      case 1:  // paper coefficients
        core::affine_pair_update(x[i], x[j], core::draw_alpha(rng),
                                 core::draw_alpha(rng));
        break;
      case 2:  // non-convex jump
        core::affine_jump_update(x[i], x[j], rng.uniform(1.0, 2.0));
        break;
      case 3: {  // mass-preserving perturbation pair
        const double nu = rng.uniform(-1e-3, 1e-3);
        x[i] += nu;
        x[j] -= nu;
        break;
      }
    }
  }
  const double sum1 = std::accumulate(x.begin(), x.end(), 0.0);
  double max_abs = 0.0;
  for (const double v : x) max_abs = std::max(max_abs, std::abs(v));
  ASSERT_TRUE(std::isfinite(max_abs));
  EXPECT_NEAR(sum1, sum0,
              1e-12 * static_cast<double>(kN) * max_abs + 1e-9);
}

// -------------------------------------------- radius / degree monotonics ----

class RadiusProperty : public ::testing::TestWithParam<double> {};

TEST_P(RadiusProperty, LargerRadiusNeverRemovesEdges) {
  const double multiplier = GetParam();
  Rng rng(1600);
  const auto points = geometry::sample_unit_square(300, rng);
  const GeometricGraph small(points, graph::paper_radius(300, multiplier));
  const GeometricGraph large(
      points, graph::paper_radius(300, multiplier * 1.5));
  EXPECT_GE(large.adjacency().edge_count(), small.adjacency().edge_count());
  for (graph::NodeId v = 0; v < 300; ++v) {
    for (const auto u : small.neighbors(v)) {
      EXPECT_TRUE(large.adjacency().has_edge(v, u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Multipliers, RadiusProperty,
                         ::testing::Values(0.6, 1.0, 1.4));

// -------------------------------------------------- engine error metrics ----

TEST(ErrorMetric, InvariantUnderConstantShift) {
  // deviation_norm measures distance to the mean: adding a constant to
  // every sensor must not change it.
  std::vector<double> x{1.0, -2.0, 3.0, 4.5};
  const double base = sim::deviation_norm(x);
  for (auto& v : x) v += 100.0;
  EXPECT_NEAR(sim::deviation_norm(x), base, 1e-9);
}

TEST(ErrorMetric, ScalesLinearly) {
  std::vector<double> x{1.0, -2.0, 3.0, 4.5};
  const double base = sim::deviation_norm(x);
  for (auto& v : x) v *= 3.0;
  EXPECT_NEAR(sim::deviation_norm(x), 3.0 * base, 1e-9);
}

// ------------------------------------------------------- schedule sanity ----

TEST(ScheduleSanity, PracticalRoundsGrowWithAccuracy) {
  const auto profile = core::compute_level_profile(65536, 48.0);
  const auto loose = core::make_practical_schedule(1e-2, profile);
  const auto tight = core::make_practical_schedule(1e-5, profile);
  for (std::size_t r = 0; r < profile.size(); ++r) {
    if (profile[r].fan_out == 0) continue;
    EXPECT_GT(tight.rounds[r], loose.rounds[r]);
  }
}

}  // namespace
}  // namespace geogossip
