// E6: greedy geographic routing costs O(sqrt(n / log n)) hops w.h.p. —
// the per-exchange cost term in §3 / Observation 1 (via Dimakis et al.).
//
// One Scenario cell per n run by the parallel exp::Runner; each replicate
// samples a fresh G(n, r) and routes `pairs` random pairs, so the hop
// means also average over deployments.  Fits the power law against the
// sqrt(n / log n) prediction and reports delivery rates (greedy dead ends
// are possible but rare at the paper's radius).
#include <cstdint>
#include <iostream>
#include <vector>

#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/sweep_cli.hpp"
#include "stats/regression.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace gg = geogossip;

static int run(int argc, char** argv) {
  std::uint64_t pairs = 2000;
  std::uint64_t seed = 51;
  // Fresh graphs per n; the harness --replicates flag overrides this.
  const std::uint32_t replicates = 3;
  double radius_multiplier = 1.2;
  std::vector<std::size_t> sizes{1024, 2048, 4096, 8192, 16384, 32768, 65536};

  gg::exp::SweepCli cli("fig_e6_routing_hops",
                        "E6: greedy routing hop scaling");
  cli.parser().add_flag("pairs", &pairs,
                        "random source/destination pairs per graph");
  cli.parser().add_flag("seed", &seed, "master seed");
  cli.parser().add_flag("radius-mult", &radius_multiplier,
                        "radius multiplier");
  cli.parser().add_flag("sizes", &sizes, "comma-separated n values");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  std::cout << "=== E6: greedy geographic routing hops (r = "
            << radius_multiplier << " sqrt(log n / n)) ===\n\n";

  const auto scenario = gg::exp::make_e6_routing(
      sizes, pairs, radius_multiplier, replicates, seed);
  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& summary = cli.summary();

  gg::ConsoleTable table({"n", "mean hops", "max", "stretch", "delivery%",
                          "sqrt(n/log n)"});
  std::vector<double> xs;
  std::vector<double> mean_hops;
  for (const auto& cs : summary.cells) {
    const double hops = cs.metric_mean("mean_hops");
    table.cell(gg::format_count(cs.cell.n))
        .cell(gg::format_fixed(hops, 1))
        .cell(gg::format_fixed(cs.metrics.at("max_hops").max, 0))
        .cell(gg::format_fixed(cs.metric_mean("stretch"), 2))
        .cell(gg::format_fixed(100.0 * cs.metric_mean("delivery"), 2))
        .cell(gg::format_fixed(cs.metric_mean("prediction"), 1));
    table.end_row();
    xs.push_back(static_cast<double>(cs.cell.n));
    mean_hops.push_back(hops);
  }
  table.print(std::cout);

  if (xs.size() >= 3) {
    const auto fit = gg::stats::fit_power_law(xs, mean_hops);
    std::cout << "\nfitted: hops " << fit.to_string()
              << "\nexpected exponent ~0.5 minus the log n correction "
                 "(sqrt(n / log n)).\n";
  }
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
