// Unit + property tests for the stats module.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats/chernoff.hpp"
#include "stats/confidence.hpp"
#include "stats/histogram.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::stats {
namespace {

// ---------------------------------------------------------- RunningStat ----

TEST(RunningStat, MatchesNaiveMoments) {
  const std::vector<double> data{1.5, -2.0, 3.25, 0.0, 7.75, -1.25};
  RunningStat stat;
  for (const double v : data) stat.push(v);

  const double mean = std::accumulate(data.begin(), data.end(), 0.0) /
                      static_cast<double>(data.size());
  double var = 0.0;
  for (const double v : data) var += (v - mean) * (v - mean);
  var /= static_cast<double>(data.size() - 1);

  EXPECT_EQ(stat.count(), data.size());
  EXPECT_NEAR(stat.mean(), mean, 1e-12);
  EXPECT_NEAR(stat.variance(), var, 1e-12);
  EXPECT_NEAR(stat.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), -2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 7.75);
  EXPECT_NEAR(stat.sum(), std::accumulate(data.begin(), data.end(), 0.0),
              1e-12);
}

TEST(RunningStat, EmptyAndSingleDefaults) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  stat.push(5.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.standard_error(), 0.0);
}

TEST(RunningStat, MergeEqualsSequentialPush) {
  Rng rng(77);
  RunningStat whole;
  RunningStat part_a;
  RunningStat part_b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.push(v);
    (i < 400 ? part_a : part_b).push(v);
  }
  part_a.merge(part_b);
  EXPECT_EQ(part_a.count(), whole.count());
  EXPECT_NEAR(part_a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(part_a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(part_a.min(), whole.min());
  EXPECT_DOUBLE_EQ(part_a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat a;
  RunningStat b;
  b.push(1.0);
  b.push(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStat c;
  a.merge(c);
  EXPECT_EQ(a.count(), 2u);
}

// ------------------------------------------------------------ Quantiles ----

TEST(Quantiles, ExactOrderStatistics) {
  Quantiles q({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(q.min(), 1.0);
  EXPECT_DOUBLE_EQ(q.max(), 5.0);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.75), 4.0);
  EXPECT_DOUBLE_EQ(q.iqr(), 2.0);
  EXPECT_DOUBLE_EQ(q.mean(), 3.0);
}

TEST(Quantiles, InterpolatesBetweenSamples) {
  Quantiles q({0.0, 10.0});
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.1), 1.0);
}

TEST(Quantiles, PushInvalidatesCache) {
  Quantiles q;
  q.push(1.0);
  EXPECT_DOUBLE_EQ(q.median(), 1.0);
  q.push(3.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
}

TEST(Quantiles, Validation) {
  Quantiles empty;
  EXPECT_THROW(empty.median(), ArgumentError);
  Quantiles q({1.0});
  EXPECT_THROW(q.quantile(-0.1), ArgumentError);
  EXPECT_THROW(q.quantile(1.1), ArgumentError);
}

TEST(SummaryHelpers, VectorForms) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_NEAR(variance_of(v), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(l2_norm({3.0, 4.0}), 5.0, 1e-12);
  EXPECT_THROW(mean_of({}), ArgumentError);
  EXPECT_THROW(variance_of({1.0}), ArgumentError);
}

// ----------------------------------------------------------- Uniformity ----

TEST(HistogramUniformity, TvAndChiSquared) {
  EXPECT_DOUBLE_EQ(tv_distance_from_uniform({10, 10, 10, 10}), 0.0);
  EXPECT_NEAR(tv_distance_from_uniform({20, 0}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(chi_squared_uniform({10, 10}), 0.0);
  EXPECT_NEAR(chi_squared_uniform({15, 5}), 5.0, 1e-12);
  EXPECT_THROW(tv_distance_from_uniform({}), ArgumentError);
  EXPECT_THROW(chi_squared_uniform({0, 0}), ArgumentError);
}

// ----------------------------------------------------------- Regression ----

TEST(Regression, ExactLineRecovery) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.5 * x - 1.0);
  const auto fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), 24.0, 1e-12);
}

TEST(Regression, NoisyLineHasLowerR2) {
  Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(3.0 * i + rng.normal(0.0, 40.0));
  }
  const auto fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.15);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.9);
  EXPECT_GT(fit.slope_stderr, 0.0);
}

TEST(Regression, Validation) {
  EXPECT_THROW(fit_line({1.0}, {1.0}), ArgumentError);
  EXPECT_THROW(fit_line({1.0, 2.0}, {1.0}), ArgumentError);
  EXPECT_THROW(fit_line({2.0, 2.0}, {1.0, 2.0}), ArgumentError);
}

TEST(Regression, PowerLawRecovery) {
  std::vector<double> xs{100, 200, 400, 800, 1600};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * std::pow(x, 1.5));
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-10);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-8);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(3200), 3.0 * std::pow(3200, 1.5), 1e-4);
  EXPECT_THROW(fit_power_law({1.0, -1.0, 2.0}, {1.0, 1.0, 1.0}),
               ArgumentError);
}

TEST(Regression, CrossoverOfTwoLaws) {
  // 100 n^1.2 and 1 n^2 cross at n = 100^(1/0.8) ~ 316.2; past it the
  // smaller exponent costs less.
  PowerLawFit slow;
  slow.exponent = 1.2;
  slow.coefficient = 100.0;
  PowerLawFit fast;
  fast.exponent = 2.0;
  fast.coefficient = 1.0;
  EXPECT_NEAR(crossover_n(fast, slow), std::pow(100.0, 1.0 / 0.8), 0.5);
  EXPECT_LT(slow.predict(400.0), fast.predict(400.0));
  EXPECT_GT(slow.predict(250.0), fast.predict(250.0));
  // The n^2 law never overtakes the n^1.2 one, and equal exponents never
  // cross.
  EXPECT_LT(crossover_n(slow, fast), 0.0);
  EXPECT_LT(crossover_n(slow, slow), 0.0);
  PowerLawFit cheap = slow;
  cheap.coefficient = 1.0;
  EXPECT_LT(crossover_n(slow, cheap), 0.0);
}

TEST(Regression, ExponentialRecovery) {
  std::vector<double> ts{0, 10, 20, 30, 40};
  std::vector<double> ys;
  for (const double t : ts) ys.push_back(5.0 * std::pow(0.9, t));
  const auto fit = fit_exponential(ts, ys);
  EXPECT_NEAR(fit.rate, 0.9, 1e-10);
  EXPECT_NEAR(fit.coefficient, 5.0, 1e-8);
}

// ------------------------------------------------------------- Chernoff ----

TEST(Chernoff, BoundsDecreaseWithMeanAndDelta) {
  EXPECT_LT(chernoff_upper_tail(100, 0.2), chernoff_upper_tail(50, 0.2));
  EXPECT_LT(chernoff_upper_tail(100, 0.3), chernoff_upper_tail(100, 0.2));
  EXPECT_LT(chernoff_lower_tail(100, 0.2), 1.0);
  EXPECT_THROW(chernoff_lower_tail(100, 1.5), ArgumentError);
  EXPECT_THROW(chernoff_upper_tail(0.0, 0.5), ArgumentError);
}

TEST(Chernoff, TwoSidedCapsAtOne) {
  EXPECT_DOUBLE_EQ(chernoff_two_sided(0.01, 0.1), 1.0);
  EXPECT_LT(chernoff_two_sided(1000, 0.2), 1e-5);
}

TEST(Chernoff, OccupancyUnionBound) {
  const double single = chernoff_two_sided(100, 0.1);
  EXPECT_NEAR(occupancy_deviation_bound(100, 0.1, 50),
              std::min(1.0, 50 * single), 1e-15);
}

TEST(Chernoff, PaperOccupancyRegime) {
  // §3: sqrt(n) squares with mean sqrt(n) occupants each, 1/10 deviation.
  // The union bound should be < 1 for large n (and is miles below at the
  // asymptotic scale the paper works with).
  const double n = 1e8;
  const double bound =
      occupancy_deviation_bound(std::sqrt(n), 0.1, static_cast<std::size_t>(
                                                       std::sqrt(n)));
  EXPECT_LT(bound, 1e-10);
}

// ----------------------------------------------------------- Confidence ----

TEST(Confidence, WilsonProportionProperties) {
  const auto interval = proportion_confidence_interval(80, 100);
  EXPECT_GT(interval.lo, 0.7);
  EXPECT_LT(interval.lo, 0.8);
  EXPECT_GT(interval.hi, 0.8);
  EXPECT_LT(interval.hi, 0.9);
  // Degenerate endpoints stay within [0, 1].
  const auto all = proportion_confidence_interval(100, 100);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.9);
  const auto none = proportion_confidence_interval(0, 100);
  EXPECT_GE(none.lo, 0.0);
  EXPECT_THROW(proportion_confidence_interval(5, 0), ArgumentError);
  EXPECT_THROW(proportion_confidence_interval(5, 4), ArgumentError);
}

// Property sweep: Welford matches naive two-pass on random data of many
// sizes.
class WelfordProperty : public ::testing::TestWithParam<int> {};

TEST_P(WelfordProperty, AgreesWithTwoPass) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n));
  RunningStat stat;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    data.push_back(v);
    stat.push(v);
  }
  EXPECT_NEAR(stat.mean(), mean_of(data), 1e-9);
  if (n >= 2) {
    EXPECT_NEAR(stat.variance(), variance_of(data), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WelfordProperty,
                         ::testing::Values(2, 3, 7, 64, 501, 4096));

}  // namespace
}  // namespace geogossip::stats
