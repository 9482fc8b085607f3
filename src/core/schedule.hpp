// The paper's per-level accuracy/time schedule (§4.1) and the calibrated
// practical schedule the simulators run (DESIGN.md §2, "Calibrated
// schedule", has one row per constant below).
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
//   eps_r      = eps / kEpsDecay^r                           (eps_at_depth)
//   rounds_r   = ceil(kInnerRoundConstant * k_r * ln(k_r / eps_r))
//                                               (Observation 1; inner_rounds)
// where k_r is the fan-out at depth r.
#ifndef GEOGOSSIP_CORE_SCHEDULE_HPP
#define GEOGOSSIP_CORE_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/hierarchy.hpp"

namespace geogossip::core {

/// eps_{r+1} = eps_r / kEpsDecay; the paper divides by 25 n^(7/2 + a).
inline constexpr double kEpsDecay = 10.0;
static_assert(kEpsDecay > 1.0, "eps_r must shrink with depth");
/// c in the inner-round count ceil(c * k * ln(k / eps_r)) of Observation 1,
/// and in the §4.2 machine's internal averaging latency.
inline constexpr double kInnerRoundConstant = 1.0;
static_assert(kInnerRoundConstant > 0.0, "a square must run rounds");
/// §4.2 machine: leaf averaging latency kLeafBudgetConstant * max(1,
/// (L/r)^2) * 2 ln(E# / eps_r) own ticks.
inline constexpr double kLeafBudgetConstant = 2.0;
static_assert(kLeafBudgetConstant > 0.0, "a leaf must get a budget");
/// §4.2 machine: the stand-in for the paper's n^a separation between a
/// square's averaging latency and its rate of long-range exchanges.
inline constexpr double kLatencyFactor = 4.0;
static_assert(kLatencyFactor >= 1.0,
              "exchanges must be no more frequent than averaging");

/// Target accuracy of a depth-`depth` square: eps / kEpsDecay^depth.
double eps_at_depth(double eps, int depth);

/// Inner rounds of a square with `k` children averaging to `eps_r`:
/// ceil(kInnerRoundConstant * k * ln(k / eps_r)).  Throws ArgumentError
/// unless that fits ceil_to_count: an eps_r that underflowed to 0 makes
/// it infinite.
std::uint32_t inner_rounds(std::size_t k, double eps_r);

/// Fan-out profile of a hierarchy: k_r for each depth, computed by the
/// paper's nearest-even-square rule from expected occupancies.
struct LevelProfile {
  int depth = 0;
  double expected_occupancy = 0.0;  ///< E# of a square at this depth
  int fan_out = 0;                  ///< number of children (0 at leaves)
};

/// Computes the level profile for n sensors and a leaf threshold.
std::vector<LevelProfile> compute_level_profile(
    std::size_t n, double leaf_threshold,
    int max_depth = geometry::kMaxDepth);

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

  std::string to_string() const;
};

PracticalSchedule make_practical_schedule(
    double eps0, const std::vector<LevelProfile>& profile);

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

/// The centralized floor E5 and E11 print beside the gossip costs: a
/// spanning tree's converge-cast and broadcast of the mean cost 2 (n - 1)
/// transmissions, at the price of global coordination and a single point
/// of failure.
std::uint64_t spanning_tree_floor(std::size_t n) noexcept;

}  // namespace geogossip::core

#endif  // GEOGOSSIP_CORE_SCHEDULE_HPP
