// E5 (headline): transmissions-to-epsilon scaling of all protocols.
//
// Reproduces the paper's central comparison: Boyd nearest-neighbour gossip
// (O~(n^2)) vs Dimakis geographic gossip (O~(n^1.5)) vs this paper's affine
// protocols (n^(1+o(1))).  Each protocol is swept over its own feasible n
// range (DESIGN.md §2, "What the simulable sizes can show"); the sweep
// itself is a Scenario run by the thread-parallel exp::Runner, the median
// transmissions-to-eps are fitted to c * n^p, and the measured exponents +
// extrapolated crossovers are printed alongside the theoretical
// predictions.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "core/schedule.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "stats/regression.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;
using gg::core::ProtocolKind;

/// One protocol's n sweep: its --<flag> list and the sizes --quick
/// sweeps instead.
struct Sweep {
  ProtocolKind kind;
  const char* flag;
  const char* help;
  std::vector<std::size_t> ns;
  std::vector<std::size_t> quick_ns;
};

static int run(int argc, char** argv) {
  std::uint64_t master_seed = 1;
  double eps = 1e-3;
  double radius_multiplier = 1.2;
  std::vector<Sweep> sweeps{
      {ProtocolKind::kBoydPairwise, "boyd-ns",
       "comma-separated n sweep for Boyd", {512, 1024, 2048, 4096, 8192},
       {256, 512, 1024}},
      {ProtocolKind::kDimakisGeographic, "dimakis-ns", "n sweep for Dimakis",
       {512, 1024, 2048, 4096, 8192, 16384}, {512, 1024, 2048}},
      {ProtocolKind::kPathAveraging, "pathavg-ns",
       "n sweep for path averaging", {512, 1024, 2048, 4096, 8192, 16384},
       {512, 1024, 2048}},
      {ProtocolKind::kAffineOneLevel, "onelevel-ns",
       "n sweep for affine-1level", {512, 2048, 8192, 32768, 131072},
       {512, 2048, 8192}},
      {ProtocolKind::kAffineMultilevel, "multi-ns",
       "n sweep for affine-multi", {2048, 8192, 32768, 131072},
       {512, 2048, 8192}},
      {ProtocolKind::kAffineDecentralized, "decentral-ns",
       "n sweep for the decentralized extension", {1024, 4096, 16384},
       {512, 2048}},
  };
  bool quick = false;

  gg::exp::SweepCli cli("tab_e5_scaling",
                        "E5: transmissions-to-eps scaling (headline table)");
  cli.parser().add_flag("seed", &master_seed, "master seed");
  cli.parser().add_flag("eps", &eps, "accuracy target");
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier c in r = c sqrt(log n / n)");
  for (Sweep& sweep : sweeps) {
    cli.parser().add_flag(sweep.flag, &sweep.ns, sweep.help);
  }
  cli.parser().add_flag("quick", &quick,
                        "shrink sweeps for a fast smoke run");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  if (quick) {
    for (Sweep& sweep : sweeps) {
      // --quick replaces every list, so an explicit one would be dropped.
      if (cli.parser().given(sweep.flag)) {
        throw gg::ArgumentError(std::string("--quick sets its own sizes; "
                                            "drop --quick or --") +
                                sweep.flag);
      }
      sweep.ns = sweep.quick_ns;
    }
  }

  gg::exp::Scenario scenario;
  scenario.name = "e5-scaling";
  scenario.description = "transmissions-to-eps scaling, all protocols";
  // Replicates per (protocol, n); the harness --replicates flag
  // overrides this.
  scenario.replicates = quick ? 3 : 4;
  scenario.master_seed = master_seed;
  for (const Sweep& sweep : sweeps) {
    for (const std::size_t n : sweep.ns) {
      auto& cell = scenario.add(sweep.kind, n);
      cell.radius_multiplier = radius_multiplier;
      cell.options.eps = eps;
    }
  }

  cli.apply_overrides(scenario);
  std::cout << "=== E5: transmissions to eps=" << eps
            << " (r = " << radius_multiplier
            << " sqrt(log n / n), seeds=" << scenario.replicates
            << ") ===\n\n";

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  // Fit tx ~ c n^p per protocol over the cells that mostly converged.
  struct Fitted {
    std::string protocol;
    gg::stats::PowerLawFit fit;
  };
  std::vector<Fitted> fits;
  for (const Sweep& sweep : sweeps) {
    std::vector<double> ns;
    std::vector<double> medians;
    for (const auto& cs : summary.cells) {
      if (cs.cell.kind != sweep.kind) continue;
      if (cs.converged_fraction <= 0.5) continue;
      ns.push_back(static_cast<double>(cs.cell.n));
      medians.push_back(cs.median_tx);
    }
    if (ns.size() >= 3) {
      fits.push_back({std::string(gg::core::protocol_kind_name(sweep.kind)),
                      gg::stats::fit_power_law(ns, medians)});
    }
  }

  std::cout << "\n--- fitted scaling exponents (tx ~ c n^p) ---\n";
  for (const auto& f : fits) {
    std::cout << "  " << f.protocol << ": " << f.fit.to_string() << '\n';
  }

  // Extrapolated crossovers between consecutive complexity classes: the
  // n past which the second protocol of a pair costs less than the first.
  const auto find = [&](const std::string& name) -> const Fitted* {
    for (const auto& f : fits) {
      if (f.protocol == name) return &f;
    }
    return nullptr;
  };
  std::cout << "\n--- extrapolated crossovers ---\n";
  for (const auto& [a_name, b_name] :
       {std::pair{"boyd", "dimakis"}, std::pair{"dimakis", "affine-multi"}}) {
    const Fitted* a = find(a_name);
    const Fitted* b = find(b_name);
    if (!a || !b) continue;
    const double n = gg::stats::crossover_n(a->fit, b->fit);
    if (n < 0.0) {
      std::cout << "  " << b_name << " does not overtake " << a_name
                << " at any n\n";
    } else {
      std::cout << "  " << b_name << " beats " << a_name << " past n ~ "
                << gg::format_si(n) << '\n';
    }
  }

  std::cout << "\n--- centralized reference ---\n"
               "  spanning-tree floor 2(n-1): n=16,384 -> "
            << gg::format_count(gg::core::spanning_tree_floor(16384))
            << " transmissions (no robustness, single point of failure)\n";

  std::cout << "\n--- paper predictions (shape overlays, c=1) ---\n";
  for (const std::size_t n : {std::size_t{1} << 14, std::size_t{1} << 20}) {
    std::cout << "  n=" << gg::format_count(n) << ": boyd~"
              << gg::format_si(
                     gg::core::boyd_predicted_transmissions(n, eps, 1.0))
              << "  dimakis~"
              << gg::format_si(
                     gg::core::dimakis_predicted_transmissions(n, eps, 1.0))
              << "  narayanan~"
              << gg::format_si(gg::core::narayanan_predicted_transmissions(
                     n, eps, 1.0))
              << '\n';
  }
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
