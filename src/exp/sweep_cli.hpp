// Shared sweep-harness command line for every experiment driver.
//
// parallel_sweep and the E1-E11 bench mains all run Scenarios through the
// same machinery — thread pool, sharding, resume checkpoints, streaming
// replicate records, heartbeat files, telemetry traces and durable
// mid-replicate snapshots — and before SweepCli each driver re-registered
// its own subset of the flags, so only parallel_sweep could actually
// resume or shard.  SweepCli owns the harness flag set once.  Every
// harness value is one typed ArgParser flag with no sub-grammar: a shard
// is --shard-index and --shard-count, a snapshot cadence
// --snapshot-every-ticks or --snapshot-every-seconds, a heartbeat
// --heartbeat-file with --heartbeat-every-seconds.  A driver registers its
// experiment-specific flags on parser(), builds its Scenario, and
// delegates execution:
//
//   gg::exp::SweepCli cli("tab_e5_scaling", "E5: scaling table");
//   cli.parser().add_flag("eps", &eps, "accuracy target");
//   if (const auto exit = cli.parse(argc, argv)) return *exit;
//   ... build scenario ...
//   if (const int exit = cli.run(std::move(scenario), std::cout)) return exit;
//   const auto& summary = cli.summary();   // post-run analysis
#ifndef GEOGOSSIP_EXP_SWEEP_CLI_HPP
#define GEOGOSSIP_EXP_SWEEP_CLI_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "support/cli.hpp"

namespace geogossip::exp {

class SweepCli {
 public:
  SweepCli(const std::string& program, const std::string& summary);

  /// The underlying parser; register driver-specific flags here BEFORE
  /// parse().  Harness flag names (--threads, --csv, ...) are taken.
  ArgParser& parser() noexcept { return parser_; }

  /// Parses argv and validates the harness flags (shard coordinates,
  /// heartbeat interval, snapshot cadence, flag combinations).  A cadence
  /// flag without its output (--snapshot-every-* without --snapshot-dir or
  /// --fleet-dir, --heartbeat-every-seconds without --heartbeat-file) is an
  /// error, as is --shard-index at or above --shard-count.  Returns the
  /// process exit code when the run should stop here (--help, malformed
  /// flags, and --fleet-status, which prints the fleet board here because
  /// it reads the plan, not a scenario); std::nullopt to continue.  Also
  /// applies --log-level and enables telemetry when --trace is given.
  std::optional<int> parse(int argc, char** argv);

  /// Applies the generic scenario overrides (--replicates).  run() calls
  /// this itself; exposed for drivers that size work before run().
  void apply_overrides(Scenario& scenario) const;

  /// Executes `scenario` with the full harness wiring — per-shard output
  /// paths, resume-checkpoint loading, streaming replicate records,
  /// heartbeat, mid-replicate snapshots — prints the summary table to
  /// `out`, exports the telemetry trace and writes the CSV/JSON sinks.
  /// --merge-only and --fleet-merge run nothing: they fold, validate and
  /// aggregate existing records instead.  Returns the process exit code
  /// (0 on success); the aggregates stay available via summary().
  int run(Scenario scenario, std::ostream& out);

  /// Aggregates of the last successful run().
  const SweepSummary& summary() const noexcept { return summary_; }

  /// Runner configuration as parsed (threads, shard coordinates, memory
  /// budget, the loaded resume checkpoint) WITHOUT sinks/snapshots — the
  /// base for --compare style verification re-runs.  The checkpoint field
  /// is populated by run().
  RunnerOptions base_options() const;

  /// True when parse() selected fleet mode (--fleet-dir): run() will
  /// join the fleet as a worker (or merge it with --fleet-merge) instead
  /// of executing the scenario directly.
  bool fleet_mode() const noexcept { return !fleet_dir_.empty(); }

  /// True when parse() selected --merge-only: run() folds the --resume
  /// records instead of executing the scenario.
  bool merge_only() const noexcept { return merge_only_; }

 private:
  int run_fleet_worker(const Scenario& scenario, std::ostream& out);
  /// --merge-only (records from --resume) and --fleet-merge (records from
  /// the fleet directory): folds the records, requires them to cover the
  /// scenario's cells x replicates grid exactly, writes the canonical
  /// record file to --json-replicates, and aggregates them.
  int run_merge(const Scenario& scenario, std::ostream& out);

  ArgParser parser_;
  std::string program_;
  SweepSummary summary_;

  // Flag storage; parse() checks what the flag types do not imply.
  std::uint32_t threads_ = 0;
  std::uint32_t replicates_ = 0;
  std::string csv_path_;
  std::string json_path_;
  std::string json_replicates_path_;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_count_ = 1;
  std::vector<std::string> resume_files_;
  bool merge_only_ = false;
  double mem_budget_gb_ = 0.0;
  std::string trace_path_;
  std::string heartbeat_path_;
  double heartbeat_interval_seconds_ = 5.0;
  std::string log_level_ = "warn";
  std::string snapshot_dir_;
  std::uint64_t snapshot_every_ticks_ = 0;
  double snapshot_every_seconds_ = 0.0;
  std::string fleet_dir_;
  std::uint32_t fleet_batches_ = 0;
  double fleet_ttl_seconds_ = 30.0;
  std::string fleet_worker_;
  std::uint64_t fleet_max_batches_ = 0;
  bool fleet_merge_ = false;
  bool fleet_status_ = false;

  std::shared_ptr<const Checkpoint> checkpoint_;
};

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SWEEP_CLI_HPP
