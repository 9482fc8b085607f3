// E11 (extension, §8 "Future Directions"): can affine combinations power a
// COMPLETELY decentralized geographic gossip?
//
// The decentralized variant drops every control primitive (no states, no
// counters, no Activate/Deactivate) and relies on rate separation alone:
// each sensor fires a long-range affine exchange with probability p_far
// per tick and otherwise averages inside its own square.  This bench
// sweeps the separation factor (p_far = 1 / (sep * m * ln m)) to locate
// the stability boundary — one Scenario cell per configuration, run by the
// parallel exp::Runner — and compares the converged configurations against
// the controlled §4.2 machine and the centralized spanning-tree floor
// 2(n-1).
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "gossip/spanning_tree.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;
using gg::core::ProtocolKind;

static int run(int argc, char** argv) {
  std::uint64_t n = 4096;
  std::uint64_t master_seed = 9;
  double eps = 1e-3;
  double radius_multiplier = 1.2;
  // Kept as text: each cell's label echoes the factor as typed.
  std::vector<std::string> separations{"0.05", "0.25", "1", "4", "8"};

  gg::exp::SweepCli cli(
      "fig_e11_decentralized",
      "E11: decentralized affine gossip (the paper's §8 open problem)");
  cli.parser().add_flag("n", &n, "deployment size");
  cli.parser().add_flag("seed", &master_seed, "master seed");
  cli.parser().add_flag("eps", &eps, "accuracy target");
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier");
  cli.parser().add_flag("separations", &separations,
                        "comma-separated rate-separation factors");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  // Parsed before the banner, so a malformed factor prints one line.
  std::vector<double> factors;
  for (const std::string& text : separations) {
    try {
      factors.push_back(gg::parse_double(text));
    } catch (const gg::ArgumentError& error) {
      throw gg::ArgumentError(std::string("--separations: ") + error.what());
    }
  }

  std::cout << "=== E11: decentralized affine gossip at n="
            << gg::format_count(n) << ", eps=" << eps << " ===\n\n";

  gg::exp::Scenario scenario;
  scenario.name = "e11-decentralized";
  scenario.description =
      "rate-separation sweep of the fully decentralized affine extension";
  // Replicates per configuration; the harness --replicates flag
  // overrides this.
  scenario.replicates = 3;
  scenario.master_seed = master_seed;

  for (std::size_t i = 0; i < factors.size(); ++i) {
    auto& cell = scenario.add("decentralized | separation " + separations[i],
                              ProtocolKind::kAffineDecentralized, n);
    cell.radius_multiplier = radius_multiplier;
    cell.field = gg::exp::CellField::kGaussian;
    cell.options.eps = eps;
    cell.options.decentralized.separation = factors[i];
    // ~40x the expected convergence ticks at the default separation;
    // unstable configurations must not burn the whole bench.
    cell.options.max_ticks = static_cast<std::uint64_t>(
        2048.0 * static_cast<double>(n) * std::log(1.0 / eps));
  }

  const std::pair<const char*, ProtocolKind> baselines[] = {
      {"controlled §4.2 machine", ProtocolKind::kAffineAsync},
      {"one-level round accounting (§3)", ProtocolKind::kAffineOneLevel},
  };
  for (const auto& [label, kind] : baselines) {
    auto& cell = scenario.add(label, kind, n);
    cell.radius_multiplier = radius_multiplier;
    cell.field = gg::exp::CellField::kGaussian;
    cell.options.eps = eps;
  }

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;

  std::cout << "\ncentralized spanning-tree floor: "
            << gg::format_count(gg::gossip::spanning_tree_floor(n))
            << " transmissions (2(n-1))\n";
  std::cout
      << "\nReading guide: tiny separation factors fire long-range affine\n"
         "jumps faster than squares can re-average — the instability the\n"
         "paper's control machinery exists to prevent — and convergence\n"
         "collapses.  Past the boundary the decentralized variant matches\n"
         "the controlled protocol's cost within a small factor while using\n"
         "ZERO control transmissions: an empirical 'yes' to §8.\n";
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
