// Tests for the analysis module: exponent fitting.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/exponent_fit.hpp"
#include "support/check.hpp"

namespace geogossip::analysis {
namespace {

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
