// E7: the Gupta-Kumar connectivity premise — P(G(n, r) connected) as a
// function of c in r = c * sqrt(log n / n).  The paper (§2.1) assumes
// r = Theta(sqrt(log n / n)) and notes delta cannot beat n^-Theta(1)
// because of the residual disconnection probability.
//
// One Scenario cell per (n, c) run by the parallel exp::Runner, with the c
// sweep paired on identical deployments at each n.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <numbers>
#include <vector>

#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

static int run(int argc, char** argv) {
  // Graphs per (n, c); the harness --replicates flag overrides this.
  const std::uint32_t replicates = 60;
  std::uint64_t seed = 61;
  std::vector<std::size_t> sizes{500, 2000, 8000};
  std::vector<double> multipliers{0.6, 0.8, 1.0, 1.2, 1.5, 2.0};

  gg::exp::SweepCli cli("fig_e7_connectivity",
                        "E7: connectivity threshold of G(n, r)");
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("sizes", &sizes, "comma-separated n values");
  cli.parser().add_flag("multipliers", &multipliers,
                        "comma-separated c values in r = c sqrt(log n / n)");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E7: P(connected) and giant-component size vs radius ===\n"
            << "(sharp threshold at r* = sqrt(log n / (pi n)), i.e. c* = "
            << gg::format_fixed(1.0 / std::sqrt(std::numbers::pi), 3)
            << ")\n\n";

  const auto scenario =
      gg::exp::make_e7_connectivity(sizes, multipliers, replicates, seed);
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table(
      {"n", "c", "P(connected)", "giant frac", "mean degree"});
  for (const auto& cs : summary.cells) {
    table.cell(gg::format_count(cs.cell.n))
        .cell(gg::format_fixed(cs.cell.param("c"), 2))
        .cell(gg::format_fixed(cs.metric_mean("connected"), 3))
        .cell(gg::format_fixed(cs.metric_mean("giant_fraction"), 4))
        .cell(gg::format_fixed(cs.metric_mean("mean_degree"), 1));
    table.end_row();
  }
  table.print(std::cout);
  std::cout << "\nExpect a sharp 0 -> 1 transition around c* ~ 0.56 that\n"
               "steepens with n; the paper's working radius (c >= 1) is\n"
               "comfortably inside the connected regime.\n";
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
