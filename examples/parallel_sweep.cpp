// Demo of the experiment-orchestration subsystem (src/exp/).
//
// Picks a registered scenario (see exp::register_builtin_scenarios), runs
// it across a thread pool, prints the per-cell summary table, and — with
// --compare — re-runs single-threaded to show both the wall-clock speedup
// and that the aggregated numbers are bit-identical at any thread count
// (the deterministic seed-stream at work).
//
//   parallel_sweep --list
//   parallel_sweep --list-names   (bare names, for shell loops / CI)
//   parallel_sweep --scenario=e5-quick --threads=4 --compare
//   parallel_sweep --scenario=e6-routing-quick --csv=out.csv
//
// Sweeps are restartable and distributable (the harness flags live in
// exp::SweepCli, shared with every bench driver):
//
//   # stream one flushed record per finished replicate
//   parallel_sweep --scenario=e5-scaling-xl --json-replicates=xl.jsonl
//   # killed?  resume into the same file: completed replicates are
//   # skipped, their results re-ingested, new records appended
//   parallel_sweep --scenario=e5-scaling-xl --resume=xl.jsonl
//       --json-replicates=xl.jsonl --csv=xl.csv        (one command line)
//   # or split one sweep across processes/machines (round-robin over the
//   # flattened (cell, replicate) stream; output paths auto-suffixed)
//   parallel_sweep --scenario=e5-scaling-xl --shard-index=0 --shard-count=2
//       --json-replicates=xl.jsonl
//   parallel_sweep --scenario=e5-scaling-xl --shard-index=1 --shard-count=2
//       --json-replicates=xl.jsonl
//   # then fold the shard files into the summaries and the canonical
//   # record file a single uninterrupted run would emit (exit 1 unless
//   # the records cover the scenario exactly)
//   parallel_sweep --scenario=e5-scaling-xl --merge-only
//       --resume=xl.shard-0-of-2.jsonl,xl.shard-1-of-2.jsonl
//       --json-replicates=xl.jsonl --csv=xl.csv
//
// Long replicates can additionally checkpoint MID-flight: --snapshot-dir
// (+ --snapshot-every-seconds or --snapshot-every-ticks) periodically
// persists each running replicate's full trajectory state, and re-running
// the same command line after a kill restores those replicates at the
// snapshotted tick and finishes them bit-identically to an uninterrupted
// run.
//
// Fleet mode automates the sharding: workers on any machines sharing a
// filesystem coordinate through one directory (leased batches, dead-lease
// stealing, snapshot-aware reassignment — see src/fleet/):
//
//   # same command on every machine; first founds the plan, rest adopt
//   parallel_sweep --scenario=e5-scaling-xl --fleet-dir=/shared/fleet
//       --fleet-batches=32 --fleet-ttl=60 --snapshot-every-seconds=300
//   parallel_sweep --fleet-dir=/shared/fleet --fleet-status  # live board
//   parallel_sweep --scenario=e5-scaling-xl --fleet-dir=/shared/fleet
//       --fleet-merge --csv=xl.csv                   # final tables
//
// The registry covers every experiment E1-E11: protocol sweeps (E5, E10,
// E11) and measurement probes (E1-E4, E6-E9), each with a -quick preset
// sized for CI smoke runs (probes also register a -paper preset).
#include <iostream>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_cli.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;

static int run(int argc, char** argv) {
  std::string scenario_name = "e5-quick";
  bool list = false;
  bool list_names = false;
  bool compare = false;

  gg::exp::SweepCli cli("parallel_sweep",
                        "run a registered scenario on the parallel harness");
  cli.parser().add_flag("scenario", &scenario_name,
                        "registered scenario name");
  cli.parser().add_flag("list", &list,
                        "list registered scenarios and exit");
  cli.parser().add_flag("list-names", &list_names,
                        "print bare scenario names (one per line) and exit");
  cli.parser().add_flag(
      "compare", &compare,
      "re-run with 1 thread and check bit-identical aggregates");
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;

  gg::exp::register_builtin_scenarios();
  auto& registry = gg::exp::ScenarioRegistry::instance();

  if (list_names) {
    for (const auto& name : registry.names()) std::cout << name << '\n';
    return 0;
  }

  if (list) {
    std::cout << "registered scenarios:\n";
    for (const auto& name : registry.names()) {
      const auto scenario = registry.make(name);
      std::cout << "  " << name << " — " << scenario.description << " ("
                << scenario.cells.size() << " cells x "
                << scenario.replicates << " replicates)\n";
    }
    return 0;
  }

  if (!registry.contains(scenario_name)) {
    std::cerr << "parallel_sweep: unknown scenario '" << scenario_name
              << "' (run with --list for the registered names)\n";
    return 1;
  }
  auto scenario = registry.make(scenario_name);
  cli.apply_overrides(scenario);
  std::cout << "scenario " << scenario.name << ": " << scenario.description
            << "\n\n";

  if (const int exit_code = cli.run(scenario, std::cout)) return exit_code;
  const auto& parallel = cli.summary();

  if (compare) {
    gg::exp::RunnerOptions serial_options = cli.base_options();
    serial_options.threads = 1;
    const auto serial = gg::exp::Runner(serial_options).run(scenario);

    bool identical = parallel.cells.size() == serial.cells.size();
    for (std::size_t i = 0; identical && i < parallel.cells.size(); ++i) {
      const auto& a = parallel.cells[i];
      const auto& b = serial.cells[i];
      identical = a.converged == b.converged && a.median_tx == b.median_tx &&
                  a.q25_tx == b.q25_tx && a.q75_tx == b.q75_tx &&
                  a.mean_control_share == b.mean_control_share;
    }
    std::cout << "\n--- threads=" << parallel.threads << " vs threads=1 ---\n"
              << "  wall: " << gg::format_fixed(parallel.wall_seconds, 2)
              << "s vs " << gg::format_fixed(serial.wall_seconds, 2)
              << "s (speedup "
              << gg::format_fixed(
                     serial.wall_seconds /
                         (parallel.wall_seconds > 0.0 ? parallel.wall_seconds
                                                      : 1e-9),
                     2)
              << "x)\n"
              << "  aggregates bit-identical: "
              << (identical ? "yes" : "NO — seed-stream bug!") << '\n';
    return identical ? 0 : 1;
  }
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
