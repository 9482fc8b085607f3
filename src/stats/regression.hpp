// Least-squares fitting, including the log-log power-law fit used to
// estimate transmission-scaling exponents (experiment E5,
// bench/tab_e5_scaling.cpp).
#ifndef GEOGOSSIP_STATS_REGRESSION_HPP
#define GEOGOSSIP_STATS_REGRESSION_HPP

#include <string>
#include <vector>

namespace geogossip::stats {

/// Ordinary least squares y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  /// Standard error of the slope estimate (0 when n <= 2).
  double slope_stderr = 0.0;

  double predict(double x) const noexcept { return slope * x + intercept; }
};

/// Fits a line through (xs, ys).  Requires >= 2 points and non-constant xs.
LinearFit fit_line(const std::vector<double>& xs,
                   const std::vector<double>& ys);

/// Power law y = coefficient * x^exponent fitted by OLS in log-log space.
/// Requires all xs, ys > 0.
struct PowerLawFit {
  double exponent = 0.0;
  double coefficient = 0.0;
  double r_squared = 0.0;
  double exponent_stderr = 0.0;

  double predict(double x) const;
  /// e.g. "y = 3.1e+00 * n^1.52 (R^2=0.998)".
  std::string to_string() const;
};

PowerLawFit fit_power_law(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// Fits y = C * rho^x, i.e. an exponential decay/growth; returns rho and C.
/// Used to recover per-step contraction factors from ||x(t)||^2 traces.
/// Requires all ys > 0.
struct ExponentialFit {
  double rate = 1.0;         ///< multiplicative factor per unit x
  double coefficient = 0.0;  ///< value at x = 0
  double r_squared = 0.0;

  double predict(double x) const;
};

ExponentialFit fit_exponential(const std::vector<double>& xs,
                               const std::vector<double>& ys);

}  // namespace geogossip::stats

#endif  // GEOGOSSIP_STATS_REGRESSION_HPP
