// Integration tests: the full pipeline (deployment -> graph -> protocol ->
// epsilon-averaging) across every protocol, plus cross-protocol invariants
// and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/convergence.hpp"
#include "exp/runner.hpp"
#include "geometry/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/field.hpp"
#include "stats/regression.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace geogossip::core {
namespace {

using graph::GeometricGraph;

// Every protocol converges to the same mean on the same graph, conserving
// the value sum.
class AllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocols, ConvergesAndConservesSum) {
  const ProtocolKind kind = GetParam();
  const std::size_t n = kind == ProtocolKind::kBoydPairwise ? 512 : 1024;
  const auto g = make_graph(n, 900);
  const auto x0 = make_field(g, 901);

  Rng rng(902);
  TrialOptions options;
  options.eps = 1e-2;
  const auto outcome = run_protocol_trial(kind, g, x0, rng, options);

  EXPECT_TRUE(outcome.converged)
      << protocol_kind_name(kind) << " err=" << outcome.final_error;
  EXPECT_LE(outcome.final_error, 1e-2);
  EXPECT_LT(outcome.sum_drift, 1e-6) << protocol_kind_name(kind);
  EXPECT_GT(outcome.transmissions.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllProtocols,
    ::testing::Values(ProtocolKind::kBoydPairwise,
                      ProtocolKind::kDimakisGeographic,
                      ProtocolKind::kPathAveraging,
                      ProtocolKind::kAffineOneLevel,
                      ProtocolKind::kAffineMultilevel,
                      ProtocolKind::kAffineAsync,
                      ProtocolKind::kAffineDecentralized),
    [](const auto& info) {
      std::string name(protocol_kind_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Integration, ScalingExponentOrderingMatchesTheory) {
  // The paper's headline is about scaling SHAPE, and absolute crossovers at
  // unit constants sit beyond simulable n (E5 in the README's "Reproducing
  // the paper's figures").  What must hold at test scale: the affine
  // one-level protocol's fitted exponent is far below Dimakis' ~1.5-1.7,
  // and Boyd's is far above it too.
  const std::vector<ProtocolKind> kinds{ProtocolKind::kAffineOneLevel,
                                        ProtocolKind::kDimakisGeographic,
                                        ProtocolKind::kBoydPairwise};
  const std::vector<std::size_t> ns{512, 2048, 8192};
  exp::Scenario scenario;
  scenario.name = "scaling-exponent-ordering";
  scenario.replicates = 2;
  scenario.master_seed = 930;
  for (const ProtocolKind kind : kinds) {
    for (const std::size_t n : ns) scenario.add(kind, n).options.eps = 1e-3;
  }
  exp::RunnerOptions runner_options;
  runner_options.threads = 4;
  const auto summary = exp::Runner(runner_options).run(scenario);

  std::vector<double> exponents;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::vector<double> xs;
    std::vector<double> medians;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const exp::CellSummary& cs = summary.cells[k * ns.size() + i];
      EXPECT_GT(cs.converged_fraction, 0.5)
          << cs.cell.label << " n=" << cs.cell.n;
      xs.push_back(static_cast<double>(cs.cell.n));
      medians.push_back(cs.median_tx);
    }
    exponents.push_back(stats::fit_power_law(xs, medians).exponent);
  }
  const double affine = exponents[0];
  const double dimakis = exponents[1];
  const double boyd = exponents[2];

  EXPECT_LT(affine, 1.35);   // measured 1.24 (approaching 1.5 only as the
                             // quadratic in-square term grows)
  EXPECT_GT(dimakis, affine + 0.15);  // measured gap 0.43
  EXPECT_GT(boyd, 1.55);     // measured 1.65, heading for 2
  EXPECT_GT(dimakis, 1.40);  // measured 1.67, the n^1.5 row
}

TEST(Integration, EveryKindRejectsEpsOutsideTheUnitInterval) {
  // Checked once, before any tick budget is derived from ln(1/eps): an eps
  // of 2 used to cast a negative budget to an unsigned count, and let the
  // tick families report convergence after one tick.
  const auto g = make_graph(128, 912);
  const auto x0 = make_field(g, 913);
  for (const auto kind :
       {ProtocolKind::kBoydPairwise, ProtocolKind::kDimakisGeographic,
        ProtocolKind::kPathAveraging, ProtocolKind::kAffineOneLevel,
        ProtocolKind::kAffineMultilevel, ProtocolKind::kAffineAsync,
        ProtocolKind::kAffineDecentralized}) {
    for (const double eps : {0.0, 1.0, 2.0, -1e-3,
                             std::numeric_limits<double>::quiet_NaN()}) {
      Rng rng(914);
      TrialOptions options;
      options.eps = eps;
      try {
        (void)run_protocol_trial(kind, g, x0, rng, options);
        ADD_FAILURE() << protocol_kind_name(kind) << " accepted eps " << eps;
      } catch (const ArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find("eps must lie in (0, 1)"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Integration, UnreachableEpsilonReportsNonConvergence) {
  const auto g = make_graph(256, 909);
  const auto x0 = make_field(g, 910);
  Rng rng(911);
  TrialOptions options;
  options.eps = 1e-3;
  options.max_ticks = 500;  // far too few
  const auto outcome = run_protocol_trial(ProtocolKind::kBoydPairwise, g, x0,
                                          rng, options);
  EXPECT_FALSE(outcome.converged);
  EXPECT_GT(outcome.final_error, 1e-3);
}

TEST(Integration, ClusteredDeploymentDoesNotCrashProtocols) {
  // Failure injection: heavily clustered deployment -> empty squares,
  // occupancy far from E#, representative routing across sparse areas, and
  // possibly a disconnected graph.  Protocols must stay well-defined and
  // conserve the value sum; the adaptive harmonic beta keeps the affine
  // update stable when occupancies deviate wildly from E# (see the
  // companion test for the paper-literal gain's behaviour).
  Rng rng(912);
  auto points = geometry::sample_clustered(
      800, geometry::Rect::unit_square(), 4, 0.05, rng);
  const GeometricGraph g(std::move(points), 0.22);
  const auto x0 = make_field(g, 913);

  TrialOptions options;
  options.eps = 5e-2;
  options.multilevel.beta_mode = BetaMode::kActualHarmonic;
  for (const auto kind : {ProtocolKind::kAffineOneLevel,
                          ProtocolKind::kAffineMultilevel,
                          ProtocolKind::kDimakisGeographic}) {
    Rng trial_rng(914);
    const auto outcome = run_protocol_trial(kind, g, x0, trial_rng, options);
    EXPECT_LT(outcome.sum_drift, 1e-6) << protocol_kind_name(kind);
    EXPECT_LE(outcome.final_error, 2.0) << protocol_kind_name(kind);
  }
}

TEST(Integration, PaperLiteralGainLeavesAlphaRangeOnClusteredDeployments) {
  // With beta = (2/5) E# (paper-literal), clustered occupancies push the
  // effective alpha = beta / #(square) out of (1/3, 1/2) — the instability
  // §6 controls via concentration, observed here directly.
  Rng rng(924);
  auto points = geometry::sample_clustered(
      800, geometry::Rect::unit_square(), 4, 0.05, rng);
  const GeometricGraph g(std::move(points), 0.22);
  const auto x0 = make_field(g, 925);

  MultilevelConfig config;
  config.eps = 5e-2;
  config.beta_mode = BetaMode::kExpected;
  config.max_top_rounds = 400;  // bounded: divergence is a valid outcome
  Rng trial_rng(926);
  MultilevelAffineGossip protocol(g, x0, trial_rng, config);
  const auto result = protocol.run();
  EXPECT_GT(result.alpha_out_of_range, 0u);
}

TEST(Integration, DisconnectedGraphKeepsComponentMeans) {
  // Below the connectivity threshold no averaging protocol can mix across
  // components; the value sum must still be conserved and nothing crashes.
  Rng rng(915);
  const auto points = geometry::sample_unit_square(400, rng);
  const GeometricGraph g(points, 0.02);  // deeply sub-threshold
  ASSERT_FALSE(graph::is_connected(g.adjacency()));
  const auto x0 = make_field(g, 916);

  TrialOptions options;
  options.eps = 1e-2;
  options.max_ticks = 200'000;
  Rng trial_rng(917);
  const auto outcome = run_protocol_trial(ProtocolKind::kBoydPairwise, g, x0,
                                          trial_rng, options);
  EXPECT_FALSE(outcome.converged);
  EXPECT_LT(outcome.sum_drift, 1e-8);
}

TEST(Integration, EveryFieldKindAverages) {
  const auto g = make_graph(512, 918);
  TrialOptions options;
  options.eps = 3e-2;
  for (const auto kind :
       {sim::FieldKind::kSpike, sim::FieldKind::kGradient,
        sim::FieldKind::kGaussian, sim::FieldKind::kCheckerboard,
        sim::FieldKind::kSpikedGaussian}) {
    Rng rng(919);
    auto x0 = sim::make_field(kind, g.points(), rng);
    sim::center_and_normalize(x0);
    if (sim::deviation_norm(x0) == 0.0) continue;
    const auto outcome = run_protocol_trial(ProtocolKind::kAffineMultilevel,
                                            g, x0, rng, options);
    EXPECT_TRUE(outcome.converged) << sim::field_kind_name(kind);
  }
}

TEST(Integration, AsyncAndRoundAccountingAgreeOnMagnitude) {
  // The §4.2 machine and the round-based accounting simulate the same
  // protocol; their transmissions-to-eps should land within a factor ~8
  // of each other at small scale.
  const auto g = make_graph(512, 920);
  const auto x0 = make_field(g, 921);
  TrialOptions options;
  options.eps = 5e-2;

  Rng rng_a(922);
  const auto round_based = run_protocol_trial(
      ProtocolKind::kAffineMultilevel, g, x0, rng_a, options);
  Rng rng_b(923);
  const auto async =
      run_protocol_trial(ProtocolKind::kAffineAsync, g, x0, rng_b, options);

  ASSERT_TRUE(round_based.converged);
  ASSERT_TRUE(async.converged);
  const double ratio =
      static_cast<double>(async.transmissions.total()) /
      static_cast<double>(round_based.transmissions.total());
  EXPECT_GT(ratio, 1.0 / 8.0);
  EXPECT_LT(ratio, 8.0);
}

}  // namespace
}  // namespace geogossip::core
