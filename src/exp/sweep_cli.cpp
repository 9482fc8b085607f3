#include "exp/sweep_cli.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "exp/sink.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/status.hpp"
#include "fleet/worker.hpp"
#include "obs/heartbeat.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "support/atomic_file.hpp"
#include "support/logging.hpp"

namespace geogossip::exp {

namespace {

/// --mem-budget must stay below 2^34 GiB, so its byte count fits a uint64.
constexpr double kMaxMemBudgetGib = 17179869184.0;
/// --fleet-ttl cap (about 31 years), so the lease expiry in milliseconds
/// and the renewal period in nanoseconds fit an int64.
constexpr double kMaxFleetTtlSeconds = 1e9;

std::uint64_t gib_to_bytes(double gib) {
  return static_cast<std::uint64_t>(gib * 1024.0 * 1024.0 * 1024.0);
}

/// True when both paths name the same file on disk — resolved through
/// the filesystem, so "./x" vs "x", relative vs absolute spellings and
/// symlinks all count (a raw string compare here would let a resume
/// TRUNCATE its own checkpoint).
bool same_file(const std::string& a, const std::string& b) {
  if (a == b) return true;
  std::error_code ec;
  const auto ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return false;
  const auto cb = std::filesystem::weakly_canonical(b, ec);
  if (ec) return false;
  return ca == cb;
}

/// Default fleet worker id: "w<pid>-<hex>".  The pid alone collides when
/// two hosts share the fleet filesystem; the random suffix (timing-only
/// randomness — never from experiment seed streams) breaks the tie.
std::string generated_worker_id() {
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  std::random_device rd;
  const unsigned suffix = rd() & 0xFFFFu;
  char hex[8];
  std::snprintf(hex, sizeof(hex), "%04x", suffix);
  std::string id = "w";
  id += std::to_string(pid);
  id += '-';
  id += hex;
  return id;
}

}  // namespace

SweepCli::SweepCli(const std::string& program, const std::string& summary)
    : parser_(program, summary), program_(program) {
  parser_.add_flag("threads", &threads_,
                   "worker threads (0 = hardware concurrency)");
  parser_.add_flag("replicates", &replicates_,
                   "override the scenario's replicate count (0 = keep)");
  parser_.add_flag("csv", &csv_path_, "write per-cell results to this CSV");
  parser_.add_flag("json", &json_path_,
                   "write per-cell results to this JSON-lines file");
  parser_.add_flag("json-replicates", &json_replicates_path_,
                   "stream one JSON-lines record per finished replicate to "
                   "this file (flushed per record; interrupted sweeps keep "
                   "partial results and --resume picks them back up).  "
                   "With --merge-only/--fleet-merge: write the merged "
                   "records here in (cell, replicate) order");
  parser_.add_flag("shard-index", &shard_index_,
                   "run shard i of --shard-count: a round-robin partition "
                   "of the (cell, replicate) stream; --csv/--json/"
                   "--json-replicates paths are suffixed per shard unless "
                   "they carry a {shard} placeholder");
  parser_.add_flag("shard-count", &shard_count_,
                   "number of shards k the sweep is split into (1 = "
                   "unsharded)");
  parser_.add_flag("resume", &resume_files_,
                   "comma-separated replicate-record files from earlier "
                   "(killed or sharded) runs of this scenario; completed "
                   "replicates are skipped and re-ingested.  Resuming into "
                   "the same --json-replicates path appends only new records");
  parser_.add_flag("merge-only", &merge_only_,
                   "run nothing: require --resume to cover the scenario's "
                   "cells x replicates exactly and emit the merged "
                   "summaries and records (exit 1 when replicates are "
                   "missing or records lie outside the scenario)");
  parser_.add_flag("mem-budget", &mem_budget_gb_,
                   "cap concurrent replicates by their memory hints to this "
                   "many GiB (0 = no cap; XL scenarios carry hints)");
  parser_.add_flag("trace", &trace_path_,
                   "enable telemetry and write a Chrome/Perfetto trace "
                   "(chrome://tracing or ui.perfetto.dev) of the sweep to "
                   "this file ({shard}-suffixed like the other outputs)");
  parser_.add_flag("heartbeat-file", &heartbeat_path_,
                   "keep a heartbeat file for unattended runs: one JSON "
                   "object, replaced each beat via rename, so it always "
                   "parses");
  parser_.add_flag("heartbeat-every-seconds", &heartbeat_interval_seconds_,
                   "heartbeat interval in (0, 1e9] seconds; needs "
                   "--heartbeat-file");
  parser_.add_flag("log-level", &log_level_,
                   "diagnostic verbosity: debug|info|warn|error|off "
                   "(default warn)");
  parser_.add_flag("snapshot-dir", &snapshot_dir_,
                   "directory for durable mid-replicate snapshots: long "
                   "replicates periodically persist their full trajectory "
                   "state (torn-write safe), and a re-run with the same "
                   "flags restores each interrupted replicate and continues "
                   "it bit-identically");
  parser_.add_flag("snapshot-every-ticks", &snapshot_every_ticks_,
                   "snapshot every N engine ticks (top rounds for "
                   "round-based protocols; 0 = no tick cadence); needs "
                   "--snapshot-dir or --fleet-dir");
  parser_.add_flag("snapshot-every-seconds", &snapshot_every_seconds_,
                   "snapshot every this many wall-clock seconds (0 = no "
                   "wall cadence; 30 when --snapshot-dir is set and neither "
                   "cadence is); needs --snapshot-dir or --fleet-dir");
  parser_.add_flag("fleet-dir", &fleet_dir_,
                   "join a fleet coordinated through this shared directory: "
                   "workers lease batches via atomic renames, renew a TTL "
                   "while running, and reclaim expired leases of dead "
                   "workers (resuming their mid-replicate snapshots).  "
                   "Owns the output/resume/snapshot/heartbeat paths, so "
                   "those flags conflict with it");
  parser_.add_flag("fleet-batches", &fleet_batches_,
                   "batch count B when founding the fleet (batch b runs as "
                   "shard b/B); must match the existing plan when joining. "
                   "0 = adopt the plan already in --fleet-dir");
  parser_.add_flag("fleet-ttl", &fleet_ttl_seconds_,
                   "lease TTL in seconds (renewed every ttl/3); a lease "
                   "silent past its TTL is reclaimed by any worker "
                   "(default 30)");
  parser_.add_flag("fleet-worker", &fleet_worker_,
                   "stable worker id ([A-Za-z0-9_-]; default: generated "
                   "from pid + random suffix).  Reusing a dead worker's id "
                   "is safe; sharing one between LIVE workers is not");
  parser_.add_flag("fleet-max-batches", &fleet_max_batches_,
                   "stop after completing this many batches (0 = run until "
                   "the fleet is complete) — for preemptible or "
                   "time-boxed workers");
  parser_.add_flag("fleet-merge", &fleet_merge_,
                   "run nothing: fold every record file in --fleet-dir, "
                   "require full coverage, and emit the merged summaries "
                   "(--csv/--json) and records (--json-replicates) — "
                   "byte-identical to an uninterrupted single-process sweep");
  parser_.add_flag("fleet-status", &fleet_status_,
                   "run nothing: print the board of --fleet-dir (plan, "
                   "batches, heartbeats, snapshots, temps) and exit 1 on any "
                   "invariant violation.  Reads the plan, not a scenario");
}

std::optional<int> SweepCli::parse(int argc, char** argv) {
  const ParseResult parsed = parser_.parse(argc, argv);
  if (parsed != ParseResult::kOk) return parse_exit_code(parsed);

  try {
    LogConfig::set_level(parse_log_level(log_level_));
  } catch (const ArgumentError& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }

  if (!(shard_index_ < shard_count_)) {
    std::cerr << "--shard-index=" << shard_index_
              << " must lie below --shard-count=" << shard_count_ << "\n";
    return 1;
  }
  if (merge_only_ && shard_count_ > 1) {
    std::cerr << "--merge-only folds ALL shards; drop --shard-count\n";
    return 1;
  }
  if (merge_only_ && resume_files_.empty()) {
    std::cerr << "--merge-only needs --resume=<shard files>\n";
    return 1;
  }
  if (!(mem_budget_gb_ >= 0.0 && mem_budget_gb_ < kMaxMemBudgetGib)) {
    std::cerr << "--mem-budget must be in [0, 2^34) GiB\n";
    return 1;
  }
  if (!(heartbeat_interval_seconds_ > 0.0 &&
        heartbeat_interval_seconds_ <= obs::Heartbeat::kMaxIntervalSeconds)) {
    std::cerr << "--heartbeat-every-seconds must be positive, at most 1e9\n";
    return 1;
  }
  if (heartbeat_path_.empty() && parser_.given("heartbeat-every-seconds")) {
    std::cerr << "--heartbeat-every-seconds needs --heartbeat-file\n";
    return 1;
  }
  if (snapshot_every_seconds_ < 0.0) {
    std::cerr << "--snapshot-every-seconds must not be negative\n";
    return 1;
  }
  if (snapshot_dir_.empty() && fleet_dir_.empty() &&
      (parser_.given("snapshot-every-ticks") ||
       parser_.given("snapshot-every-seconds"))) {
    std::cerr << "--snapshot-every-* needs --snapshot-dir (or --fleet-dir)\n";
    return 1;
  }
  if (!snapshot_dir_.empty() && snapshot_every_ticks_ == 0 &&
      snapshot_every_seconds_ == 0.0) {
    snapshot_every_seconds_ = 30.0;  // documented default cadence
  }

  if (fleet_merge_ && fleet_dir_.empty()) {
    std::cerr << "--fleet-merge needs --fleet-dir\n";
    return 1;
  }
  if (!fleet_dir_.empty()) {
    // The fleet directory owns sharding, resume, records, snapshots and
    // heartbeats; accepting these flags alongside it would silently
    // split the run's durable state across two layouts.
    const auto conflict = [](const char* flag) {
      std::cerr << flag << " conflicts with --fleet-dir: the fleet "
                   "directory owns that concern (see README \"Fleet "
                   "mode\")\n";
      return 1;
    };
    if (parser_.given("shard-index") || parser_.given("shard-count")) {
      return conflict("--shard-index/--shard-count");
    }
    if (!resume_files_.empty()) return conflict("--resume");
    if (merge_only_) return conflict("--merge-only (use --fleet-merge)");
    if (!snapshot_dir_.empty()) return conflict("--snapshot-dir");
    if (!heartbeat_path_.empty()) return conflict("--heartbeat-file");
    if (!fleet_merge_) {
      // Worker mode streams records into the fleet directory; summaries
      // and the canonical record file come from --fleet-merge afterwards.
      if (!csv_path_.empty()) return conflict("--csv (merge emits it)");
      if (!json_path_.empty()) return conflict("--json (merge emits it)");
      if (!json_replicates_path_.empty()) {
        return conflict("--json-replicates (merge emits it)");
      }
    }
    if (!(fleet_ttl_seconds_ > 0.0 &&
          fleet_ttl_seconds_ <= kMaxFleetTtlSeconds)) {
      std::cerr << "--fleet-ttl must be positive seconds, at most 1e9\n";
      return 1;
    }
    if (fleet_worker_.empty()) {
      fleet_worker_ = generated_worker_id();
    } else if (!fleet::valid_owner(fleet_worker_)) {
      std::cerr << "--fleet-worker must be non-empty [A-Za-z0-9_-]\n";
      return 1;
    }
  }

  if (fleet_status_) {
    if (fleet_dir_.empty() || fleet_merge_) {
      std::cerr << "--fleet-status needs --fleet-dir and no --fleet-merge\n";
      return 1;
    }
    return fleet::print_fleet_status(
               fleet_dir_, fleet::LeaseStore::now_unix_ms(), std::cout) == 0
               ? 0
               : 1;
  }

  if (!trace_path_.empty()) obs::set_enabled(true);
  return std::nullopt;
}

void SweepCli::apply_overrides(Scenario& scenario) const {
  if (replicates_ > 0) scenario.replicates = replicates_;
}

RunnerOptions SweepCli::base_options() const {
  RunnerOptions options;
  options.threads = threads_;
  options.shard_index = shard_index_;
  options.shard_count = shard_count_;
  options.memory_budget_bytes = gib_to_bytes(mem_budget_gb_);
  options.resume_from = checkpoint_;
  return options;
}

int SweepCli::run(Scenario scenario, std::ostream& out) {
  apply_overrides(scenario);

  if (merge_only_ || fleet_merge_) return run_merge(scenario, out);
  if (fleet_mode()) return run_fleet_worker(scenario, out);

  // Per-shard output paths so k cooperating processes can share one
  // command line (identity when unsharded and no {shard} placeholder).
  // The snapshot dir is shared as-is: shards own disjoint (cell,
  // replicate) slots, so their snapshot files never collide.
  std::string csv_path = csv_path_;
  std::string json_path = json_path_;
  std::string json_replicates_path = json_replicates_path_;
  std::string trace_path = trace_path_;
  if (!csv_path.empty()) {
    csv_path = shard_path(csv_path, shard_index_, shard_count_);
  }
  if (!json_path.empty()) {
    json_path = shard_path(json_path, shard_index_, shard_count_);
  }
  if (!json_replicates_path.empty()) {
    json_replicates_path =
        shard_path(json_replicates_path, shard_index_, shard_count_);
  }
  if (!trace_path.empty()) {
    trace_path = shard_path(trace_path, shard_index_, shard_count_);
  }

  // Load checkpoints BEFORE any sink opens the replicate path: resuming
  // into the same file must read it completely first.
  bool resume_into_same_file = false;
  if (!resume_files_.empty()) {
    for (const std::string& path : resume_files_) {
      if (!json_replicates_path.empty() &&
          same_file(path, json_replicates_path)) {
        resume_into_same_file = true;
      }
    }
    checkpoint_ = fold_records(scenario, resume_files_, "resume");
    out << "resume: " << checkpoint_->size()
        << " completed replicate(s) loaded\n";
  }

  RunnerOptions options = base_options();
  options.snapshot_dir = snapshot_dir_;
  options.snapshot_every_ticks = snapshot_every_ticks_;
  options.snapshot_every_seconds = snapshot_every_seconds_;

  std::unique_ptr<JsonLinesSink> replicate_sink;
  if (!json_replicates_path.empty()) {
    replicate_sink = std::make_unique<JsonLinesSink>(
        json_replicates_path, resume_into_same_file
                                  ? JsonLinesSink::Mode::kAppend
                                  : JsonLinesSink::Mode::kTruncate);
    JsonLinesSink* sink = replicate_sink.get();
    const std::string scenario_name = scenario.name;
    const std::uint64_t master_seed = scenario.master_seed;
    options.progress = [sink, scenario_name, master_seed](
                           const Cell& cell, std::size_t cell_index,
                           std::uint32_t replicate,
                           const ReplicateResult& result) {
      sink->write_replicate(scenario_name, master_seed, cell, cell_index,
                            replicate, result);
    };
  }

  std::unique_ptr<obs::Heartbeat> heartbeat;
  if (!heartbeat_path_.empty()) {
    obs::Heartbeat::Options hb;
    hb.path = shard_path(heartbeat_path_, shard_index_, shard_count_);
    hb.interval_seconds = heartbeat_interval_seconds_;
    hb.scenario = scenario.name;
    hb.shard_index = shard_index_;
    hb.shard_count = shard_count_;
    // Total = the tasks THIS process owns under the round-robin shard
    // partition, so completed == total signals a finished shard.
    hb.total_replicates = shard_task_count(
        shard_index_, shard_count_,
        static_cast<std::uint64_t>(scenario.cells.size()) *
            scenario.replicates);
    heartbeat = std::make_unique<obs::Heartbeat>(std::move(hb));
    options.heartbeat = heartbeat.get();
  }

  const Runner runner(options);
  summary_ = runner.run(scenario);
  if (heartbeat != nullptr) heartbeat->stop();
  print_summary(out, summary_);

  if (options.memory_budget_bytes > 0 && summary_.peak_rss_kb > 0 &&
      summary_.peak_rss_kb * 1024 > options.memory_budget_bytes) {
    log_warn("peak RSS ", summary_.peak_rss_kb,
             " KiB exceeded --mem-budget (",
             options.memory_budget_bytes / (1024 * 1024), " MiB) — "
             "the scenario's mem hints underestimate its footprint");
  }

  // Export BEFORE any verification re-run the driver may do records more
  // events; the trace describes the primary (parallel) sweep.
  if (!trace_path.empty()) {
    obs::write_chrome_trace_file(trace_path, obs::snapshot(),
                                 program_ + " " + scenario.name);
    out << "trace: " << trace_path << "\n";
  }

  write_sinks(summary_, csv_path, json_path);
  return 0;
}

int SweepCli::run_fleet_worker(const Scenario& scenario, std::ostream& out) {
  fleet::WorkerOptions options;
  options.fleet_dir = fleet_dir_;
  options.worker = fleet_worker_;
  options.ttl_seconds = fleet_ttl_seconds_;
  options.batches = fleet_batches_;
  options.threads = threads_;
  options.memory_budget_bytes = gib_to_bytes(mem_budget_gb_);
  if (snapshot_every_ticks_ > 0 || snapshot_every_seconds_ > 0.0) {
    options.snapshot_every_ticks = snapshot_every_ticks_;
    options.snapshot_every_seconds = snapshot_every_seconds_;
  }
  options.max_batches = fleet_max_batches_;

  out << "fleet: worker '" << options.worker << "' joining " << fleet_dir_
      << "\n";
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, options, out);

  if (!trace_path_.empty()) {
    const std::string trace = trace_path_ + "." + options.worker;
    obs::write_chrome_trace_file(trace, obs::snapshot(),
                                 program_ + " " + scenario.name);
    out << "trace: " << trace << "\n";
  }
  // A worker that stopped early (--fleet-max-batches) still succeeded;
  // the fleet's overall completion lives in the done/ markers.
  (void)report;
  return 0;
}

int SweepCli::run_merge(const Scenario& scenario, std::ostream& out) {
  std::vector<std::string> files;
  if (fleet_merge_) {
    const auto plan = fleet::try_load_plan(fleet_dir_);
    if (!plan) {
      std::cerr << "--fleet-merge: no plan.json in " << fleet_dir_
                << " — is this a fleet directory?\n";
      return 1;
    }
    // batches = 0: adopt the plan's batch count, validate everything else.
    fleet::validate_plan_match(*plan, fleet::plan_for(scenario, 0));
    files = fleet::all_record_files(fleet_dir_);
    out << "fleet merge: "
        << fleet::done_batches(fleet_dir_, plan->batches).size() << "/"
        << plan->batches << " batches done\n";
  } else {
    files = resume_files_;
  }
  auto checkpoint = fold_records(scenario, files, "resume");
  out << "merge: " << checkpoint->size() << " replicate(s) from "
      << files.size() << " record file(s)\n";

  // The records must cover the scenario's cells x replicates grid
  // exactly: a record outside it (shards run with another --replicates,
  // say) fails the merge as surely as a hole inside it.
  const std::size_t cells = scenario.cells.size();
  std::size_t stray = 0;
  for (const auto& [key, result] : checkpoint->records()) {
    if (key.first >= cells || key.second >= scenario.replicates) ++stray;
  }
  if (stray > 0) {
    std::cerr << "merge: " << stray << " record(s) outside the " << cells
              << " x " << scenario.replicates << " grid of '"
              << scenario.name << "' (written with another --replicates?)\n";
    return 1;
  }
  const std::size_t tasks = cells * scenario.replicates;
  if (checkpoint->size() < tasks) {
    std::cerr << "merge: " << tasks - checkpoint->size() << " of " << tasks
              << " replicates missing"
              << (fleet_merge_ ? " — the fleet has not finished (or lost "
                                 "records); start a worker with --fleet-dir "
                                 "to complete it\n"
                               : " from the --resume files\n");
    return 1;
  }

  if (!json_replicates_path_.empty()) {
    // The canonical record file: every record once, in (cell_index,
    // replicate) order, committed atomically because the target may be
    // one of the files just folded.
    std::ostringstream records;
    JsonLinesSink sink(records);
    for (const auto& [key, result] : checkpoint->records()) {
      sink.write_replicate(scenario.name, scenario.master_seed,
                           scenario.cells[key.first], key.first, key.second,
                           result);
    }
    atomic_write_file(json_replicates_path_, records.str());
  }

  // Aggregate through the SAME Runner path an uninterrupted run uses —
  // every task is re-ingested (none executes), and index-order
  // aggregation makes the merged summaries byte-identical to a
  // single-process sweep.
  checkpoint_ = std::move(checkpoint);
  summary_ = Runner(base_options()).run(scenario);
  print_summary(out, summary_);
  write_sinks(summary_, csv_path_, json_path_);
  return 0;
}

}  // namespace geogossip::exp
