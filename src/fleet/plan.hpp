// Fleet directory layout and the plan file (the fleet's shared contract).
//
// A fleet directory is created by whichever worker arrives first — there
// is no designated coordinator.  Election is std::filesystem's
// create_directory on <fleet>/planner.claim (atomic: exactly one caller
// creates it); the winner writes one queue ticket per batch and then
// commits <fleet>/plan.json LAST via write-temp-then-rename, so the plan
// file's existence means the whole layout is complete.  Losers poll for
// plan.json; a claim directory that outlives its grace period with no
// plan behind it is a dead planner — any waiter removes it and the
// election reruns (tickets are deterministic, so rewriting them is
// idempotent).
//
// Every later worker validates its own scenario against the plan:
// scenario name, master seed, replicate count, cell count and batch
// count must all match, or the worker refuses to join — mixing builds or
// edited scenario definitions in one fleet directory would merge
// conflicting records.
//
// Layout:
//   plan.json                          commit marker + shared contract
//   planner.claim/                     election token (left in place)
//   queue/batch-<id>.json              unclaimed tickets
//   leases/batch-<id>.g<g>.<o>.lease   claimed batches (see lease.hpp)
//   records/batch-<id>.g<g>.<o>.jsonl  replicate records, per lease
//   done/batch-<id>.json               completion markers
//   snaps/                             shared mid-replicate snapshots
//   hb/<owner>.jsonl                   worker heartbeats
//   hb/<owner>.stats.json              worker exit stats (obs counters)
#ifndef GEOGOSSIP_FLEET_PLAN_HPP
#define GEOGOSSIP_FLEET_PLAN_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/scenario.hpp"

namespace geogossip::fleet {

struct FleetPlan {
  std::string scenario;
  std::uint64_t master_seed = 0;
  std::uint32_t replicates = 0;
  std::uint64_t cells = 0;
  std::uint32_t batches = 0;

  std::uint64_t total_tasks() const noexcept { return cells * replicates; }
  /// Tasks batch `b` owns under the round-robin partition (shard b of B).
  std::uint64_t batch_task_count(std::uint32_t batch) const noexcept {
    return exp::shard_task_count(batch, batches, total_tasks());
  }
};

// ------------------------------------------------------------- layout ----
std::string plan_path(const std::string& fleet_dir);
std::string claim_dir(const std::string& fleet_dir);
std::string queue_dir(const std::string& fleet_dir);
std::string leases_dir(const std::string& fleet_dir);
std::string records_dir(const std::string& fleet_dir);
std::string done_dir(const std::string& fleet_dir);
std::string snaps_dir(const std::string& fleet_dir);
std::string hb_dir(const std::string& fleet_dir);
std::string queue_ticket_path(const std::string& fleet_dir,
                              std::uint32_t batch);
std::string done_marker_path(const std::string& fleet_dir,
                             std::uint32_t batch);
std::string records_path(const std::string& fleet_dir, std::uint32_t batch,
                         std::uint32_t generation, const std::string& owner);
std::string heartbeat_path(const std::string& fleet_dir,
                           const std::string& owner);
std::string worker_stats_path(const std::string& fleet_dir,
                              const std::string& owner);

// --------------------------------------------------------------- plan ----

/// The plan a scenario implies for a given batch count.
FleetPlan plan_for(const exp::Scenario& scenario, std::uint32_t batches);

/// Loads plan.json; nullopt when absent, ArgumentError when unreadable or
/// unparsable (a corrupt plan must stop the fleet, not restart it).
std::optional<FleetPlan> try_load_plan(const std::string& fleet_dir);

/// Throws ArgumentError when `ours` and `theirs` disagree on any field —
/// the caller names which side came from disk.
void validate_plan_match(const FleetPlan& on_disk, const FleetPlan& ours);

struct EnsurePlanOptions {
  /// A claim dir this old with no plan.json behind it is a dead planner.
  double stale_claim_seconds = 30.0;
  /// Give up waiting for someone else's election after this long.
  double wait_timeout_seconds = 60.0;
  double poll_seconds = 0.05;
  /// Test hook; empty = sleep_for.
  std::function<void(double seconds)> sleeper;
};

/// Joins (or founds) the fleet: loads-and-validates an existing plan, or
/// wins the election and writes layout + tickets + plan.  `batches` is
/// the caller's intended batch count; it must be >= 1 and must match an
/// existing plan exactly.  Throws ArgumentError on mismatch, IoError on
/// timeout or filesystem failure.
FleetPlan ensure_plan(const std::string& fleet_dir,
                      const exp::Scenario& scenario, std::uint32_t batches,
                      const EnsurePlanOptions& options = {});

// --------------------------------------------------- completion state ----

bool batch_done(const std::string& fleet_dir, std::uint32_t batch);
/// Batch ids with a completion marker, ascending.
std::vector<std::uint32_t> done_batches(const std::string& fleet_dir,
                                        std::uint32_t batches);
/// Commits done/batch-<id>.json (atomic; duplicate completions of one
/// batch by racing workers overwrite each other harmlessly).
void write_done_marker(const std::string& fleet_dir, std::uint32_t batch,
                       const std::string& owner,
                       const std::string& records_file,
                       std::uint64_t completed_replicates);

/// Restores a batch's queue ticket — a failing worker putting its batch
/// back so survivors claim it immediately instead of waiting out the
/// TTL.  Idempotent (tickets are deterministic).
void requeue_batch(const std::string& fleet_dir, std::uint32_t batch);

/// The batch of a record-file name (records_path); false on any other.
bool parse_records_filename(const std::string& name, std::uint32_t* batch);
/// Record files of one batch (every generation/owner), sorted — the
/// resume set a new lease owner folds before running.
std::vector<std::string> batch_record_files(const std::string& fleet_dir,
                                            std::uint32_t batch);
/// Every record file in the fleet, sorted — the merge input.
std::vector<std::string> all_record_files(const std::string& fleet_dir);

}  // namespace geogossip::fleet

#endif  // GEOGOSSIP_FLEET_PLAN_HPP
