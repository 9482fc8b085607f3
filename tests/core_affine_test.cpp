// Tests for the affine kernel, the K_n models (Lemma 1 / Corollary 1 /
// Lemma 2) and the closed-form E[A^T A] (experiments E1-E4's foundations).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/affine.hpp"
#include "core/complete_graph_model.hpp"
#include "core/expected_contraction.hpp"
#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::core {
namespace {

// --------------------------------------------------------------- kernel ----

TEST(AffineKernel, MatchesPaperComponentwiseRule) {
  double xi = 2.0;
  double xj = -3.0;
  affine_pair_update(xi, xj, 0.4, 0.35);
  // x_i' = (1-a_i) x_i + a_j x_j ; x_j' = (1-a_j) x_j + a_i x_i.
  EXPECT_NEAR(xi, 0.6 * 2.0 + 0.35 * -3.0, 1e-15);
  EXPECT_NEAR(xj, 0.65 * -3.0 + 0.4 * 2.0, 1e-15);
}

TEST(AffineKernel, ConvexHalfIsClassicalGossip) {
  double xi = 4.0;
  double xj = 2.0;
  affine_pair_update(xi, xj, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(xi, 3.0);
  EXPECT_DOUBLE_EQ(xj, 3.0);
}

// Sum preservation holds for EVERY coefficient pair — including the
// non-convex Omega(sqrt(n)) gains the paper uses.
class AffineSumProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(AffineSumProperty, SumIsExactlyPreserved) {
  const auto [ai, aj] = GetParam();
  Rng rng(500);
  for (int trial = 0; trial < 100; ++trial) {
    double xi = rng.uniform(-100.0, 100.0);
    double xj = rng.uniform(-100.0, 100.0);
    const double sum = xi + xj;
    affine_pair_update(xi, xj, ai, aj);
    EXPECT_NEAR(xi + xj, sum, 1e-10 * (1.0 + std::abs(sum)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoefficientPairs, AffineSumProperty,
    ::testing::Values(std::pair{0.5, 0.5}, std::pair{0.4, 0.35},
                      std::pair{1.0 / 3.0 + 1e-6, 0.5 - 1e-6},
                      std::pair{25.6, 25.6},     // beta = 2*64/5 node-level
                      std::pair{-0.2, 0.7},      // outside any safe range
                      std::pair{409.6, 409.6})); // beta = 2*1024/5

TEST(AffineHelpers, BetaAndRange) {
  EXPECT_DOUBLE_EQ(far_beta(100.0), 40.0);
  EXPECT_THROW(far_beta(0.0), ArgumentError);
  EXPECT_TRUE(alpha_in_paper_range(0.4));
  EXPECT_FALSE(alpha_in_paper_range(1.0 / 3.0));
  EXPECT_FALSE(alpha_in_paper_range(0.5));
  Rng rng(501);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(alpha_in_paper_range(draw_alpha(rng)));
  }
}

// ----------------------------------------------------------- K_n model ----

TEST(CompleteGraphModel, PreservesSumOverManySteps) {
  CompleteGraphConfig config;
  config.n = 64;
  Rng rng(502);
  std::vector<double> x0(64);
  for (auto& v : x0) v = rng.normal();
  const double sum0 = std::accumulate(x0.begin(), x0.end(), 0.0);
  CompleteGraphModel model(config, x0, rng);
  model.run(100000);
  double sum = 0.0;
  for (const double v : model.values()) sum += v;
  EXPECT_NEAR(sum, sum0, 1e-8);
}

TEST(CompleteGraphModel, AlphasRespectMode) {
  Rng rng(503);
  CompleteGraphConfig config;
  config.n = 32;
  config.alpha_mode = AlphaMode::kPaperFixed;
  const CompleteGraphModel paper(config, std::vector<double>(32, 0.0), rng);
  for (const double a : paper.alphas()) {
    EXPECT_TRUE(alpha_in_paper_range(a));
  }
  config.alpha_mode = AlphaMode::kConvexHalf;
  const CompleteGraphModel convex(config, std::vector<double>(32, 0.0), rng);
  for (const double a : convex.alphas()) EXPECT_DOUBLE_EQ(a, 0.5);
}

TEST(CompleteGraphModel, Lemma1ContractionHolds) {
  // E1 itself: the zero-sum spike pair (||x0||^2 = 2) run to each horizon
  // t = 2n..10n.  The empirical mean of ||x(t)||^2 must sit below the
  // Lemma 1 bound (up to sampling noise at the tail).
  constexpr std::size_t kN = 64;
  exp::RunnerOptions options;
  options.threads = 1;
  const auto summary =
      exp::Runner(options).run(exp::make_e1_contraction({kN}, 96, 504));
  std::size_t horizons = 0;
  for (const auto& cs : summary.cells) {
    if (static_cast<AlphaMode>(static_cast<int>(cs.cell.param(
            "alpha_mode"))) != AlphaMode::kPaperFixed) {
      continue;
    }
    ++horizons;
    const auto t = static_cast<std::uint64_t>(cs.cell.param("t"));
    EXPECT_LT(cs.metric_mean("ratio"), 1.25)
        << "t=" << t << " mean=" << cs.metric_mean("norm_sq");
    // The trajectory contracts substantially overall.
    if (t == 10 * kN) {
      EXPECT_LT(cs.metric_mean("norm_sq"), 0.4);
    }
  }
  EXPECT_EQ(horizons, 5u);
}

TEST(CompleteGraphModel, BoundsFormulas) {
  EXPECT_NEAR(lemma1_bound(10, 0), 1.0, 1e-15);
  EXPECT_NEAR(lemma1_bound(10, 20), std::pow(0.95, 20), 1e-12);
  EXPECT_DOUBLE_EQ(corollary_tail_bound(10, 0, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(corollary_tail_bound(10, 0, 0.1), 1.0);  // capped
  EXPECT_GT(lemma2_envelope(100, 0, 1.0, 1.0, 0.0), 1.0);
  EXPECT_NEAR(lemma2_failure_probability(10, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(lemma2_failure_probability(100, 2.0), 5e-4, 1e-15);
  EXPECT_THROW(lemma1_bound(1, 5), ArgumentError);
}

TEST(CompleteGraphModel, CorollaryTailHoldsEmpirically) {
  // P(||x(t)|| > eps ||x0||) at a t where the bound is informative.
  constexpr std::size_t kN = 32;
  constexpr double kEps = 0.5;
  const std::uint64_t t = 6 * kN;  // bound = eps^-2 (1-1/2n)^t ~ 0.15
  const double bound = corollary_tail_bound(kN, t, kEps);
  ASSERT_LT(bound, 0.5);

  CompleteGraphConfig config;
  config.n = kN;
  std::vector<double> x0(kN, 0.0);
  x0[0] = std::sqrt(0.5);
  x0[1] = -std::sqrt(0.5);  // unit norm
  int violations = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(derive_seed(506, trial));
    CompleteGraphModel model(config, x0, rng);
    model.run(t);
    if (model.relative_norm() > kEps) ++violations;
  }
  EXPECT_LT(static_cast<double>(violations) / kTrials, bound * 1.3);
}

TEST(CompleteGraphModel, Lemma2EnvelopeHoldsUnderNoise) {
  constexpr std::size_t kN = 48;
  constexpr double kNoise = 1e-4;
  constexpr double kA = 1.0;
  CompleteGraphConfig config;
  config.n = kN;
  config.noise_bound = kNoise;

  std::vector<double> x0(kN, 0.0);
  x0[0] = 1.0;
  x0[1] = -1.0;
  const double y0_norm = std::sqrt(2.0);

  const std::uint64_t t = 10 * kN;
  const double envelope = lemma2_envelope(kN, t, kA, y0_norm, kNoise);
  int violations = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(derive_seed(507, trial));
    CompleteGraphModel model(config, x0, rng);
    model.run(t);
    if (std::sqrt(model.norm_squared()) > envelope) ++violations;
  }
  // Allowed failure probability is 5/n^a; with slack for sampling noise.
  const double allowed = lemma2_failure_probability(kN, kA);
  EXPECT_LE(static_cast<double>(violations) / kTrials, allowed + 0.05);
}

TEST(CompleteGraphModel, NoiseFloorsTheError) {
  // With perturbations the norm cannot contract to zero: it stalls at a
  // noise floor — exactly why the paper needs eps_r to shrink per level.
  constexpr std::size_t kN = 32;
  CompleteGraphConfig config;
  config.n = kN;
  config.noise_bound = 1e-2;
  std::vector<double> x0(kN, 0.0);
  x0[0] = 1.0;
  x0[1] = -1.0;
  Rng rng(508);
  CompleteGraphModel model(config, x0, rng);
  model.run(200 * kN);
  EXPECT_GT(std::sqrt(model.norm_squared()), 1e-3);
  EXPECT_LT(std::sqrt(model.norm_squared()), 1.0);
}

TEST(CompleteGraphModel, Validation) {
  Rng rng(509);
  CompleteGraphConfig config;
  config.n = 1;
  EXPECT_THROW(CompleteGraphModel(config, {0.0}, rng), ArgumentError);
  config.n = 4;
  EXPECT_THROW(CompleteGraphModel(config, {0.0}, rng), ArgumentError);
  config.noise_bound = -1.0;
  EXPECT_THROW(CompleteGraphModel(config, std::vector<double>(4, 0.0), rng),
               ArgumentError);
}

// ----------------------------------------------------------- E[A^T A] ----

TEST(ExpectedContraction, ClosedFormMatchesMonteCarlo) {
  Rng rng(510);
  std::vector<double> alphas(24);
  for (auto& a : alphas) a = draw_alpha(rng);
  const auto closed = expected_update_gram(alphas);
  const auto sampled = monte_carlo_update_gram(alphas, 4'000'000, rng);
  EXPECT_LT(max_abs_difference(closed, sampled), 2e-3);
}

TEST(ExpectedContraction, RowsSumLikeDoublyStochasticOnAverage) {
  // 1 is a fixed direction of A^T in expectation: column sums of E[A^T A]
  // applied to 1 give back ... at least every row sums to <= 1 + O(1/n)
  // and the matrix is symmetric.
  Rng rng(511);
  std::vector<double> alphas(16);
  for (auto& a : alphas) a = draw_alpha(rng);
  const auto m = expected_update_gram(alphas);
  for (std::size_t r = 0; r < m.n; ++r) {
    for (std::size_t c = 0; c < m.n; ++c) {
      EXPECT_NEAR(m.at(r, c), m.at(c, r), 1e-15);
    }
  }
}

class SpectralBoundProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpectralBoundProperty, ContractionWithinLemma1Bound) {
  const std::size_t n = GetParam();
  Rng rng(512 + n);
  std::vector<double> alphas(n);
  for (auto& a : alphas) a = draw_alpha(rng);
  const auto m = expected_update_gram(alphas);
  const double contraction = contraction_factor_zero_sum(m, 600, rng);
  // Lemma 1's proof bound: <= 1 - 8/(9(n-1)) < 1 - 1/(2n).
  EXPECT_LE(contraction, lemma1_explicit_bound(n) + 1e-9);
  EXPECT_LE(contraction, 1.0 - 1.0 / (2.0 * static_cast<double>(n)) + 1e-9);
  EXPECT_GT(contraction, 0.5);  // sane scale
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpectralBoundProperty,
                         ::testing::Values(4, 8, 16, 64, 128));

TEST(ExpectedContraction, ConvexHalfContractsFastest) {
  // alpha = 1/2 zeroes the diagonal penalty; its contraction factor is the
  // best achievable by this update family.
  Rng rng(513);
  constexpr std::size_t kN = 32;
  const auto convex =
      expected_update_gram(std::vector<double>(kN, 0.5));
  std::vector<double> mixed(kN);
  for (auto& a : mixed) a = draw_alpha(rng);
  const auto paper = expected_update_gram(mixed);
  const double c_convex = contraction_factor_zero_sum(convex, 600, rng);
  const double c_paper = contraction_factor_zero_sum(paper, 600, rng);
  EXPECT_LE(c_convex, c_paper + 1e-6);
}

TEST(ExpectedContraction, EndpointAlphaStillContracts) {
  // alpha -> 1/3: the (1-2a)^2 = 1/9 diagonal term of the paper's proof.
  Rng rng(514);
  constexpr std::size_t kN = 24;
  const auto m = expected_update_gram(
      std::vector<double>(kN, 1.0 / 3.0 + 1e-9));
  const double contraction = contraction_factor_zero_sum(m, 600, rng);
  EXPECT_LT(contraction, 1.0);
  EXPECT_LE(contraction, lemma1_explicit_bound(kN) + 1e-6);
}

TEST(ExpectedContraction, Validation) {
  Rng rng(515);
  EXPECT_THROW(expected_update_gram({0.4}), ArgumentError);
  DenseMatrix m;
  m.n = 4;
  m.data.assign(16, 0.0);
  EXPECT_THROW(contraction_factor_zero_sum(m, 0, rng), ArgumentError);
  DenseMatrix other;
  other.n = 3;
  other.data.assign(9, 0.0);
  EXPECT_THROW(max_abs_difference(m, other), ArgumentError);
}

}  // namespace
}  // namespace geogossip::core
