// The paper's per-level accuracy/time schedule (§4.1) and the calibrated
// practical schedule the simulators run (DESIGN.md substitution table).
//
// Paper (literal):
//   eps_0 = eps, delta_0 = delta
//   eps_{r+1}  = eps_r  / (25 n^(7/2 + a))
//   delta_{r+1} = delta_r / n^(2 a r)
//   time(n, ell-1, .) = ((log(n / eps_{ell-1})) log(1/delta_{ell-1}))^16
//   time(n, r-1, .)  = time(n, r, .) * n^a * ((log(n_r/eps_r)) log(1/delta_r))^16
// These quantities are astronomically conservative — they exist to make the
// union bounds work at asymptotic n — so PaperSchedule REPORTS them (bench
// E10 prints the comparison) while PracticalSchedule drives simulation with
// the same structure and calibrated constants:
//   eps_{r+1}  = eps_r / eps_decay
//   rounds_r   = ceil(round_constant * k_r * ln(k_r / eps_r))  (Observation 1)
// where k_r is the fan-out at depth r.
#ifndef GEOGOSSIP_CORE_SCHEDULE_HPP
#define GEOGOSSIP_CORE_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip::core {

/// Fan-out profile of a hierarchy: k_r for each depth, computed by the
/// paper's nearest-even-square rule from expected occupancies.
struct LevelProfile {
  int depth = 0;
  double expected_occupancy = 0.0;  ///< E# of a square at this depth
  int fan_out = 0;                  ///< number of children (0 at leaves)
};

/// Computes the level profile for n sensors and a leaf threshold.
std::vector<LevelProfile> compute_level_profile(std::size_t n,
                                                double leaf_threshold,
                                                int max_depth = 12);

/// Literal §4.1 quantities (for reporting only — see header comment).
struct PaperSchedule {
  double a = 1.0;
  std::vector<double> eps;        ///< eps_r, indexed by depth
  std::vector<double> delta;      ///< delta_r
  std::vector<double> log10_time; ///< log10 of time(n, r, eps_r, delta_r)

  std::string to_string() const;
};

PaperSchedule make_paper_schedule(std::size_t n, double eps0, double delta0,
                                  double a,
                                  const std::vector<LevelProfile>& profile);

/// Calibrated schedule actually used by the round-based simulators.
struct PracticalSchedule {
  std::vector<double> eps;              ///< per-depth target accuracy
  std::vector<std::uint32_t> rounds;    ///< exchange rounds for a depth-r square
  double round_constant = 1.0;
  double eps_decay = 10.0;

  std::string to_string() const;
};

PracticalSchedule make_practical_schedule(
    double eps0, double round_constant, double eps_decay,
    const std::vector<LevelProfile>& profile);

/// ceil(value) as a round or budget count.  Throws ArgumentError, naming
/// `what`, unless that is a number in [0, UINT32_MAX]: a plain cast of an
/// infinite or larger value is undefined behaviour.
std::uint32_t ceil_to_count(double value, std::string_view what);

/// The paper's headline prediction, as a comparable closed form:
/// n * (log(n / eps))^(c * log log n).  Used for shape overlays in E5.
double narayanan_predicted_transmissions(std::size_t n, double eps, double c);

/// Dimakis et al. prediction: c * n^1.5 * log(1/eps) / sqrt(log n).
double dimakis_predicted_transmissions(std::size_t n, double eps, double c);

/// Boyd et al. prediction on G(n, r): c * n^2 * log(1/eps) / log(n).
double boyd_predicted_transmissions(std::size_t n, double eps, double c);

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_SCHEDULE_HPP
