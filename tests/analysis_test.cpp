// Tests for the analysis module: spectral-gap estimation, exponent
// fitting.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/exponent_fit.hpp"
#include "analysis/mixing.hpp"
#include "graph/geometric_graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::analysis {
namespace {

// ---------------------------------------------------------------- mixing ----

graph::CsrGraph cycle_graph(std::uint32_t n) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, (i + 1) % n});
  }
  return graph::CsrGraph::from_edges(n, edges);
}

graph::CsrGraph complete_graph(std::uint32_t n) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return graph::CsrGraph::from_edges(n, edges);
}

TEST(Mixing, CompleteGraphHasNearUnitGap) {
  // K_n: natural-walk lambda_2 = -1/(n-1); the gap is ~1.
  Rng rng(800);
  const auto result = estimate_spectral_gap(complete_graph(40), 400, rng);
  EXPECT_NEAR(result.lambda2, -1.0 / 39.0, 0.02);
  EXPECT_GT(result.spectral_gap, 0.9);
}

TEST(Mixing, CycleGapMatchesCosineFormula) {
  // Cycle C_n: lambda_2 = cos(2 pi / n).
  Rng rng(801);
  constexpr std::uint32_t kN = 64;
  const auto result = estimate_spectral_gap(cycle_graph(kN), 4000, rng);
  EXPECT_NEAR(result.lambda2, std::cos(2.0 * std::numbers::pi / kN), 5e-3);
  EXPECT_GT(result.relaxation_time, 100.0);
}

TEST(Mixing, GrgRelaxationGrowsRoughlyLinearlyInN) {
  // T_relax ~ 1/r^2 ~ n / log n on G(n, r): quadrupling n should grow the
  // relaxation time by ~3-4x.
  Rng rng_a(802);
  Rng rng_b(803);
  const auto g_small = graph::GeometricGraph::sample(500, 2.0, rng_a);
  const auto g_large = graph::GeometricGraph::sample(2000, 2.0, rng_b);
  Rng rng_c(804);
  Rng rng_d(805);
  const auto small = estimate_spectral_gap(g_small.adjacency(), 3000, rng_c);
  const auto large = estimate_spectral_gap(g_large.adjacency(), 3000, rng_d);
  const double ratio = large.relaxation_time / small.relaxation_time;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 8.0);
}

TEST(Mixing, MixingTimeEstimateScalesWithLogEps) {
  SpectralGapResult gap;
  gap.relaxation_time = 10.0;
  EXPECT_NEAR(mixing_time_estimate(gap, 100, 1e-3) -
                  mixing_time_estimate(gap, 100, 1e-2),
              10.0 * std::log(10.0), 1e-9);
  EXPECT_THROW(mixing_time_estimate(gap, 100, 2.0), ArgumentError);
}

TEST(Mixing, RejectsIsolatedNodes) {
  Rng rng(806);
  const auto g = graph::CsrGraph::from_edges(3, {{0, 1}});
  EXPECT_THROW(estimate_spectral_gap(g, 10, rng), ArgumentError);
}

// ---------------------------------------------------------- exponent fit ----

TEST(ExponentFit, RecoversCleanPowerLaw) {
  std::vector<double> ns{1000, 2000, 4000, 8000, 16000};
  std::vector<double> medians;
  for (const double n : ns) medians.push_back(0.5 * std::pow(n, 1.5));
  const auto report = fit_scaling("test", ns, medians);
  EXPECT_NEAR(report.fit.exponent, 1.5, 1e-9);
  EXPECT_NE(report.to_string().find("test"), std::string::npos);
  EXPECT_THROW(fit_scaling("x", {1.0, 2.0}, {1.0, 2.0}), ArgumentError);
}

TEST(ExponentFit, CrossoverOfTwoLaws) {
  // 100 n^1.2 and 1 n^2 cross at n = 100^(1/0.8) ~ 316.2.
  stats::PowerLawFit slow;
  slow.exponent = 1.2;
  slow.coefficient = 100.0;
  stats::PowerLawFit fast;
  fast.exponent = 2.0;
  fast.coefficient = 1.0;
  const double n_cross = crossover_n(fast, slow);
  EXPECT_NEAR(n_cross, std::pow(100.0, 1.0 / 0.8), 0.5);
  // Same exponent -> no crossover.
  EXPECT_LT(crossover_n(slow, slow), 0.0);
}

}  // namespace
}  // namespace geogossip::analysis
