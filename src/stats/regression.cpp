#include "stats/regression.hpp"

#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::stats {

LinearFit fit_line(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  GG_CHECK_ARG(xs.size() == ys.size(), "fit_line: size mismatch");
  GG_CHECK_ARG(xs.size() >= 2, "fit_line: need at least 2 points");
  const auto n = static_cast<double>(xs.size());

  double sum_x = 0.0;
  double sum_y = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum_x += xs[i];
    sum_y += ys[i];
  }
  const double mean_x = sum_x / n;
  const double mean_y = sum_y / n;

  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  GG_CHECK_ARG(sxx > 0.0, "fit_line: xs are constant");

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;

  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double resid = ys[i] - fit.predict(xs[i]);
    ss_res += resid * resid;
  }
  fit.r_squared = syy == 0.0 ? 1.0 : 1.0 - ss_res / syy;
  if (xs.size() > 2) {
    fit.slope_stderr =
        std::sqrt(ss_res / (n - 2.0)) / std::sqrt(sxx);
  }
  return fit;
}

double PowerLawFit::predict(double x) const {
  GG_CHECK_ARG(x > 0.0, "PowerLawFit::predict requires x > 0");
  return coefficient * std::pow(x, exponent);
}

std::string PowerLawFit::to_string() const {
  std::ostringstream os;
  os << "y = " << format_sci(coefficient, 2) << " * n^"
     << format_fixed(exponent, 3) << " (R^2=" << format_fixed(r_squared, 4)
     << ", se=" << format_fixed(exponent_stderr, 3) << ')';
  return os.str();
}

PowerLawFit fit_power_law(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  GG_CHECK_ARG(xs.size() == ys.size(), "fit_power_law: size mismatch");
  std::vector<double> log_x;
  std::vector<double> log_y;
  log_x.reserve(xs.size());
  log_y.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    GG_CHECK_ARG(xs[i] > 0.0 && ys[i] > 0.0,
                 "fit_power_law: all values must be positive");
    log_x.push_back(std::log(xs[i]));
    log_y.push_back(std::log(ys[i]));
  }
  const LinearFit line = fit_line(log_x, log_y);
  PowerLawFit fit;
  fit.exponent = line.slope;
  fit.coefficient = std::exp(line.intercept);
  fit.r_squared = line.r_squared;
  fit.exponent_stderr = line.slope_stderr;
  return fit;
}

double crossover_n(const PowerLawFit& a, const PowerLawFit& b) {
  GG_CHECK_ARG(a.coefficient > 0.0 && b.coefficient > 0.0,
               "crossover_n: coefficients must be positive");
  // c_a n^p_a = c_b n^p_b  =>  n = (c_b / c_a)^(1 / (p_a - p_b)); past it
  // the smaller exponent wins.
  const double dp = a.exponent - b.exponent;
  if (!(dp > 0.0)) return -1.0;
  return std::pow(b.coefficient / a.coefficient, 1.0 / dp);
}

double ExponentialFit::predict(double x) const {
  return coefficient * std::pow(rate, x);
}

ExponentialFit fit_exponential(const std::vector<double>& xs,
                               const std::vector<double>& ys) {
  GG_CHECK_ARG(xs.size() == ys.size(), "fit_exponential: size mismatch");
  std::vector<double> log_y;
  log_y.reserve(ys.size());
  for (const double y : ys) {
    GG_CHECK_ARG(y > 0.0, "fit_exponential: ys must be positive");
    log_y.push_back(std::log(y));
  }
  const LinearFit line = fit_line(xs, log_y);
  ExponentialFit fit;
  fit.rate = std::exp(line.slope);
  fit.coefficient = std::exp(line.intercept);
  fit.r_squared = line.r_squared;
  return fit;
}

}  // namespace geogossip::stats
