// Tests for the round-based multilevel affine gossip simulator — the
// accounting engine behind the headline scaling experiment (E5) and the
// ablations (E10).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "core/convergence.hpp"
#include "core/multilevel.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/telemetry.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace geogossip::core {
namespace {

using graph::GeometricGraph;

TEST(Multilevel, ConvergesOnModerateDeployment) {
  const auto g = make_graph(2048, 600);
  Rng rng(601);
  auto x0 = make_field(g, rng);

  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();

  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.final_error, 1e-3);
  EXPECT_GT(result.top_rounds, 0u);
  EXPECT_GT(result.transmissions.total(), 0u);
}

TEST(Multilevel, ConservesTheSum) {
  const auto g = make_graph(1024, 602);
  Rng rng(603);
  auto x0 = make_field(g, rng);
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);

  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  (void)protocol.run();
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-7);
}

TEST(Multilevel, AllValuesNearTheMeanAfterConvergence) {
  const auto g = make_graph(1024, 604);
  Rng rng(605);
  std::vector<double> x0(g.node_count());
  for (auto& v : x0) v = rng.uniform(0.0, 20.0);
  const double mean0 = std::accumulate(x0.begin(), x0.end(), 0.0) /
                       static_cast<double>(x0.size());

  MultilevelConfig config;
  config.eps = 1e-4;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  ASSERT_TRUE(result.converged);
  for (const double v : protocol.values()) EXPECT_NEAR(v, mean0, 0.5);
}

TEST(Multilevel, OneLevelModeUsesDepthOne) {
  const auto g = make_graph(1024, 606);
  Rng rng(607);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.max_depth = 1;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  EXPECT_EQ(protocol.hierarchy().levels(), 2);  // root + one split
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
}

TEST(Multilevel, ChargesAllThreeCategories) {
  const auto g = make_graph(2048, 608);
  Rng rng(609);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLocal], 0u);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLongRange], 0u);
  EXPECT_GT(result.transmissions[sim::TxCategory::kControl], 0u);
}

TEST(Multilevel, ControlChargingCanBeDisabled) {
  const auto g = make_graph(1024, 610);
  Rng rng(611);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.charge_control = false;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.transmissions[sim::TxCategory::kControl], 0u);
}

TEST(Multilevel, ConvexRepModeIsFarSlowerThanAffine) {
  // THE core claim of the paper in miniature: convex representative
  // averaging moves only O(1/m) of a square's mass per exchange, while the
  // affine jump moves Theta(1) of it.
  const auto g = make_graph(1024, 612);
  Rng rng_a(613);
  Rng rng_b(614);
  auto x0 = make_field(g, rng_a);

  MultilevelConfig affine;
  affine.eps = 3e-2;
  affine.max_depth = 1;
  MultilevelAffineGossip affine_protocol(g, x0, rng_a, affine);
  const auto affine_result = affine_protocol.run();

  MultilevelConfig convex = affine;
  convex.beta_mode = BetaMode::kConvexRep;
  // Convex mode needs a far larger round cap to converge at all.
  convex.max_top_rounds = 400'000;
  MultilevelAffineGossip convex_protocol(g, x0, rng_b, convex);
  const auto convex_result = convex_protocol.run();

  ASSERT_TRUE(affine_result.converged);
  if (convex_result.converged) {
    EXPECT_GT(convex_result.top_rounds, 5 * affine_result.top_rounds);
  } else {
    // Not converging within a 50x-larger budget makes the point, too.
    EXPECT_GT(convex_result.final_error, affine_result.final_error);
  }
}

TEST(Multilevel, HarmonicBetaModeAlsoConverges) {
  const auto g = make_graph(1024, 615);
  Rng rng(616);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.beta_mode = BetaMode::kActualHarmonic;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
  // Harmonic beta adapts to actual occupancy: fewer alpha-range violations
  // than the paper's fixed expected-occupancy gain would incur.
  EXPECT_LT(result.alpha_out_of_range, result.top_rounds);
}

TEST(Multilevel, QuadraticLeafModelChargesMore) {
  const auto g = make_graph(2048, 617);
  Rng rng_a(618);
  Rng rng_b(618);  // same seed: identical round sequence
  auto x0 = make_field(g, rng_a);
  rng_b = Rng(618);

  MultilevelConfig mixing;
  mixing.eps = 1e-2;
  mixing.leaf_cost = LeafCostModel::kGrgMixing;
  Rng rng1(619);
  MultilevelAffineGossip p1(g, x0, rng1, mixing);
  const auto r1 = p1.run();

  MultilevelConfig quadratic = mixing;
  quadratic.leaf_cost = LeafCostModel::kQuadratic;
  Rng rng2(619);
  MultilevelAffineGossip p2(g, x0, rng2, quadratic);
  const auto r2 = p2.run();

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_GT(r2.transmissions[sim::TxCategory::kLocal],
            r1.transmissions[sim::TxCategory::kLocal]);
}

TEST(Multilevel, MeasuredLeafModeConvergesAndCostsRealExchanges) {
  const auto g = make_graph(512, 620);
  Rng rng(621);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.leaf_cost = LeafCostModel::kMeasured;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.transmissions[sim::TxCategory::kLocal], 0u);
}

TEST(Multilevel, LeafNoiseInjectionStillConverges) {
  // Lemma 2 in vivo: small imperfect-averaging noise does not break
  // convergence to a coarser epsilon.
  const auto g = make_graph(1024, 622);
  Rng rng(623);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 3e-2;
  config.leaf_noise = 1e-6;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
}

TEST(Multilevel, LargeLeafNoiseFloorsTheError) {
  const auto g = make_graph(1024, 624);
  Rng rng(625);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-6;  // unreachable under heavy noise
  config.leaf_noise = 1e-2;
  config.max_top_rounds = 3000;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  EXPECT_FALSE(result.converged);
  EXPECT_GT(result.final_error, 1e-6);
}

TEST(Multilevel, TraceIsRecordedWhenRequested) {
  const auto g = make_graph(1024, 626);
  Rng rng(627);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-2;
  config.trace_every = 1;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.trace.size(), 1u);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].first, result.trace[i - 1].first);
  }
  // The last sample is the tracked error at the stopping round, and
  // final_error recomputes it from the values: they agree to rounding,
  // not bit for bit.
  EXPECT_NEAR(result.trace.back().second, result.final_error,
              1e-12 * result.final_error);
}

TEST(Multilevel, TopRoundRefreshesAreNotTrackerRefreshes) {
  // The round loop's exact refresh every 256 top rounds must reach neither
  // the refresh count nor the protocol.tracker_refreshes counter, and the
  // element-count refresh must stay off: perfbench's traced mode matches
  // that counter against the refreshes it replays from tick protocols.
  const auto g = make_graph(2048, 637);
  Rng rng(638);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-4;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  const auto result = protocol.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.top_rounds, 256u);
  EXPECT_EQ(protocol.tracker_refreshes(), 0u);

#if !defined(GEOGOSSIP_OBS_DISABLE)
  obs::reset();
  obs::set_enabled(true);
  TrialOptions options;
  options.eps = config.eps;
  Rng trial_rng(639);
  (void)run_protocol_trial(ProtocolKind::kAffineMultilevel, g, x0, trial_rng,
                           options);
  obs::set_enabled(false);
  const auto counters = obs::snapshot().counters;
  obs::reset();
  EXPECT_EQ(counters.at("trial.count"), 1u);
  const auto refreshes = counters.find("protocol.tracker_refreshes");
  EXPECT_TRUE(refreshes == counters.end() || refreshes->second == 0u);
#endif
}

TEST(Multilevel, ConstantFieldConvergesImmediately) {
  const auto g = make_graph(256, 628);
  Rng rng(629);
  MultilevelConfig config;
  MultilevelAffineGossip protocol(
      g, std::vector<double>(g.node_count(), 7.0), rng, config);
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.top_rounds, 0u);
  EXPECT_EQ(result.transmissions.total(), 0u);
}

TEST(Multilevel, TinyDeploymentDegeneratesToLeafAveraging) {
  const auto g = make_graph(24, 630);  // below the leaf threshold
  Rng rng(631);
  auto x0 = make_field(g, rng);
  MultilevelConfig config;
  config.eps = 1e-3;
  MultilevelAffineGossip protocol(g, x0, rng, config);
  EXPECT_EQ(protocol.hierarchy().levels(), 1);
  const auto result = protocol.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.top_rounds, 0u);
}

TEST(Multilevel, OneLevelLocalShareGrowsWithN) {
  // §3's one-level protocol pays Theta(m (L/r)^2 log m) = Theta~(m^2 / log n)
  // per in-square averaging with m = sqrt(n): the local share of its bill
  // must grow with n — the paper's motivation for recursing.
  const auto local_share = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    auto g = GeometricGraph::sample(n, 2.0, rng);
    auto x0 = sim::gaussian_field(n, rng);
    sim::center_and_normalize(x0);
    MultilevelConfig config;
    config.eps = 1e-2;
    config.max_depth = 1;
    MultilevelAffineGossip protocol(g, x0, rng, config);
    const auto result = protocol.run();
    EXPECT_TRUE(result.converged);
    return static_cast<double>(
               result.transmissions[sim::TxCategory::kLocal]) /
           static_cast<double>(result.transmissions.total());
  };
  EXPECT_GT(local_share(8192, 633), local_share(512, 632));
}

TEST(Multilevel, RecursionOverheadAtSimulableScaleIsDocumented) {
  // At simulable n the fan-out of depth >= 1 splits is SMALL (k ~ 4..16),
  // so the per-level round multiplier 2 c ln(k / eps_r) exceeds the k-fold
  // leaf shrinkage and full recursion costs MORE than one level — the
  // asymptotic regime needs k >> log(k/eps), i.e. n >> 10^6 (DESIGN.md §2;
  // E10 in the README's "Reproducing the paper's figures").  Pin that fact
  // so a regression in either direction is caught.
  const auto g = make_graph(2048, 632);
  Rng rng1(634);
  auto x0 = make_field(g, rng1);

  MultilevelConfig one_level;
  one_level.eps = 1e-2;
  one_level.max_depth = 1;
  Rng rng2(635);
  MultilevelAffineGossip p1(g, x0, rng2, one_level);
  const auto r1 = p1.run();

  MultilevelConfig multi = one_level;
  multi.max_depth = 12;
  Rng rng3(635);
  MultilevelAffineGossip p2(g, x0, rng3, multi);
  const auto r2 = p2.run();

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_GT(p2.hierarchy().levels(), p1.hierarchy().levels());
  EXPECT_GT(r2.transmissions.total(), r1.transmissions.total());
}

TEST(Multilevel, Validation) {
  const auto g = make_graph(64, 635);
  Rng rng(636);
  MultilevelConfig config;
  EXPECT_THROW(
      MultilevelAffineGossip(g, std::vector<double>(3, 0.0), rng, config),
      ArgumentError);
  config.eps = 0.0;
  EXPECT_THROW(MultilevelAffineGossip(
                   g, std::vector<double>(g.node_count(), 0.0), rng, config),
               ArgumentError);

  // Rejected at construction, before any square is built or averaged: a
  // leaf threshold below 1 would split every square down to max_depth,
  // and a bad leaf constant or noise bound used to throw only from run().
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [&](auto&& edit) {
    MultilevelConfig bad;
    edit(bad);
    EXPECT_THROW(MultilevelAffineGossip(
                     g, std::vector<double>(g.node_count(), 0.0), rng, bad),
                 ArgumentError);
  };
  rejects([](MultilevelConfig& c) { c.leaf_threshold = 0.0; });
  rejects([](MultilevelConfig& c) { c.leaf_threshold = 0.5; });
  rejects([&](MultilevelConfig& c) { c.leaf_threshold = nan; });
  rejects([](MultilevelConfig& c) { c.leaf_constant = 0.0; });
  rejects([](MultilevelConfig& c) { c.leaf_constant = -1.0; });
  rejects([&](MultilevelConfig& c) { c.leaf_constant = nan; });
  rejects([](MultilevelConfig& c) { c.leaf_noise = -1e-6; });
  rejects([&](MultilevelConfig& c) { c.leaf_noise = nan; });
  // Infinite constants, and a round count past UINT32_MAX, used to reach
  // an undefined double-to-uint32 cast.
  const double inf = std::numeric_limits<double>::infinity();
  rejects([&](MultilevelConfig& c) { c.round_constant = inf; });
  rejects([&](MultilevelConfig& c) { c.eps_decay = inf; });
  rejects([](MultilevelConfig& c) { c.round_constant = 1e12; });
  // The measured leaf model charges no constant, but the check is the same.
  rejects([](MultilevelConfig& c) {
    c.leaf_cost = LeafCostModel::kMeasured;
    c.leaf_constant = 0.0;
  });

  MultilevelConfig edge;  // the boundary values are valid
  edge.leaf_threshold = 1.0;
  edge.leaf_noise = 0.0;
  EXPECT_NO_THROW(MultilevelAffineGossip(
      g, std::vector<double>(g.node_count(), 0.0), rng, edge));
}

}  // namespace
}  // namespace geogossip::core
