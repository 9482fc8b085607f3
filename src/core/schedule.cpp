#include "core/schedule.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "geometry/grid.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::core {

double eps_at_depth(double eps, int depth) {
  return eps / std::pow(kEpsDecay, depth);
}

std::uint32_t inner_rounds(std::size_t k, double eps_r) {
  const double kk = static_cast<double>(k);
  return ceil_to_count(kInnerRoundConstant * kk * std::log(kk / eps_r),
                       "rounds");
}

std::vector<LevelProfile> compute_level_profile(std::size_t n,
                                                double leaf_threshold,
                                                int max_depth) {
  GG_CHECK_ARG(n >= 2, "compute_level_profile: n >= 2");
  GG_CHECK_ARG(leaf_threshold >= 1.0, "leaf threshold >= 1");

  std::vector<LevelProfile> profile;
  double expected = static_cast<double>(n);
  int depth = 0;
  while (true) {
    LevelProfile level;
    level.depth = depth;
    level.expected_occupancy = expected;
    if (expected <= leaf_threshold || depth >= max_depth) {
      level.fan_out = 0;
      profile.push_back(level);
      return profile;
    }
    const auto fan_out = geometry::paper_subsquare_count(expected);
    level.fan_out = static_cast<int>(fan_out);
    profile.push_back(level);
    expected /= static_cast<double>(fan_out);
    ++depth;
  }
}

PaperSchedule make_paper_schedule(std::size_t n, double eps0, double delta0,
                                  double a,
                                  const std::vector<LevelProfile>& profile) {
  GG_CHECK_ARG(eps0 > 0.0 && eps0 < 1.0, "eps0 in (0,1)");
  GG_CHECK_ARG(delta0 > 0.0 && delta0 < 1.0, "delta0 in (0,1)");
  GG_CHECK_ARG(a > 0.0, "a > 0");
  GG_CHECK_ARG(!profile.empty(), "empty level profile");

  const double nn = static_cast<double>(n);
  const std::size_t depths = profile.size();

  PaperSchedule schedule;
  schedule.a = a;
  schedule.eps.resize(depths);
  schedule.delta.resize(depths);
  schedule.log10_time.assign(depths, 0.0);

  // Work in log10 throughout: the literal quantities overflow double fast.
  std::vector<double> log10_eps(depths);
  std::vector<double> log10_delta(depths);
  log10_eps[0] = std::log10(eps0);
  log10_delta[0] = std::log10(delta0);
  for (std::size_t r = 1; r < depths; ++r) {
    // eps_{r} = eps_{r-1} / (25 n^(7/2 + a))
    log10_eps[r] =
        log10_eps[r - 1] - std::log10(25.0) - (3.5 + a) * std::log10(nn);
    // delta_{r} = delta_{r-1} / n^(2 a (r-1))
    log10_delta[r] = log10_delta[r - 1] -
                     2.0 * a * static_cast<double>(r - 1) * std::log10(nn);
  }
  for (std::size_t r = 0; r < depths; ++r) {
    schedule.eps[r] = std::pow(10.0, log10_eps[r]);
    schedule.delta[r] = std::pow(10.0, log10_delta[r]);
  }

  // time at the deepest level ell-1, then upward recursion.
  const auto log10_block = [&](std::size_t r, double scale) {
    // log10 of ((log(scale / eps_r)) * log(1 / delta_r))^16, natural logs.
    const double log_term =
        std::log(scale) - log10_eps[r] * std::numbers::ln10;
    const double delta_term = -log10_delta[r] * std::numbers::ln10;
    GG_CHECK(log_term > 0.0 && delta_term > 0.0,
             "paper schedule log terms must be positive");
    return 16.0 * (std::log10(log_term) + std::log10(delta_term));
  };

  const std::size_t deepest = depths - 1;
  schedule.log10_time[deepest] = log10_block(deepest, nn);
  for (std::size_t r = deepest; r > 0; --r) {
    // time(r-1) = time(r) * n^a * ((log(n_r / eps_r)) log(1/delta_r))^16,
    // n_r = fan-out at depth r-1 (the subsquare count of that split).
    const double fan =
        std::max(4.0, static_cast<double>(profile[r - 1].fan_out));
    schedule.log10_time[r - 1] =
        schedule.log10_time[r] + a * std::log10(nn) + log10_block(r, fan);
  }
  return schedule;
}

std::string PaperSchedule::to_string() const {
  std::ostringstream os;
  os << "paper schedule (a=" << a << "):";
  for (std::size_t r = 0; r < eps.size(); ++r) {
    os << "\n  depth " << r << ": eps=" << format_sci(eps[r], 2)
       << " delta=" << format_sci(delta[r], 2)
       << " time=10^" << format_fixed(log10_time[r], 1) << " ticks";
  }
  return os.str();
}

PracticalSchedule make_practical_schedule(
    double eps0, const std::vector<LevelProfile>& profile) {
  GG_CHECK_ARG(eps0 > 0.0 && eps0 < 1.0, "eps0 in (0,1)");
  GG_CHECK_ARG(!profile.empty(), "empty level profile");

  PracticalSchedule schedule;
  schedule.eps.resize(profile.size());
  schedule.rounds.assign(profile.size(), 0);
  for (std::size_t r = 0; r < profile.size(); ++r) {
    schedule.eps[r] = eps_at_depth(eps0, static_cast<int>(r));
    if (profile[r].fan_out > 0) {
      schedule.rounds[r] = inner_rounds(
          static_cast<std::size_t>(profile[r].fan_out), schedule.eps[r]);
    }
  }
  return schedule;
}

std::uint32_t ceil_to_count(double value, std::string_view what) {
  constexpr auto kMax =
      static_cast<double>(std::numeric_limits<std::uint32_t>::max());
  const double count = std::ceil(value);
  GG_CHECK_ARG(count >= 0.0 && count <= kMax,
               std::string(what) + " must be a count in [0, UINT32_MAX]");
  return static_cast<std::uint32_t>(count);
}

std::string PracticalSchedule::to_string() const {
  std::ostringstream os;
  os << "practical schedule (c=" << kInnerRoundConstant
     << ", decay=" << kEpsDecay << "):";
  for (std::size_t r = 0; r < eps.size(); ++r) {
    os << "\n  depth " << r << ": eps=" << format_sci(eps[r], 2)
       << " rounds=" << rounds[r];
  }
  return os.str();
}

double narayanan_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  GG_CHECK_ARG(eps > 0.0 && eps < 1.0, "eps in (0,1)");
  const double nn = static_cast<double>(n);
  const double log_term = std::log(nn / eps);
  const double exponent = c * std::log(std::log(nn));
  return nn * std::pow(log_term, exponent);
}

double dimakis_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  const double nn = static_cast<double>(n);
  return c * std::pow(nn, 1.5) * std::log(1.0 / eps) / std::sqrt(std::log(nn));
}

double boyd_predicted_transmissions(std::size_t n, double eps, double c) {
  GG_CHECK_ARG(n >= 3, "n >= 3");
  const double nn = static_cast<double>(n);
  return c * nn * nn * std::log(1.0 / eps) / std::log(nn);
}

}  // namespace geogossip::core
