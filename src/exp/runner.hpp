// Thread-parallel scenario runner.
//
// Runner fans every (cell, replicate) pair of a Scenario out across a
// ThreadPool.  Each task derives its Rng seed from
// replicate_seed(master, stream, replicate) — stream being the cell index,
// or the cell's pinned seed_stream for paired comparisons — and writes
// into its own preallocated result slot, so aggregation happens in
// deterministic index order after the pool drains: per-cell summaries are
// bit-identical at any thread count.  A replicate runs start to finish on
// the worker that took it, so threads beyond the number of pending
// replicates stay idle.  A run with a snapshot directory starts one more
// thread, which commits the replicates' snapshots (see
// RunnerOptions::snapshot_dir).  Summaries reduce replicate outcomes through
// stats::Quantiles / RunningStat, the same machinery the hand-rolled
// bench loops used.
#ifndef GEOGOSSIP_EXP_RUNNER_HPP
#define GEOGOSSIP_EXP_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace geogossip::obs {
class Heartbeat;
}  // namespace geogossip::obs

namespace geogossip::exp {

// ReplicateResult (core::TrialOutcome) is named in scenario.hpp: cells
// carry TrialFn, which returns it.

/// Order statistics of one named per-trial metric over a cell's
/// replicates.  Aggregated in replicate-index order, so bit-identical at
/// any thread count.
struct MetricSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double q95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Aggregate over the replicates of one cell.  Transmission quantiles and
/// category shares are computed over the converged replicates only;
/// metric summaries cover every replicate that reported the key.
struct CellSummary {
  Cell cell;
  std::size_t cell_index = 0;
  /// Replicates aggregated for this cell: the scenario's replicate count
  /// for a full run, the owned subset for a sharded run (a shard's summary
  /// is a partial view — the merged aggregation is the authoritative one).
  std::uint32_t replicates = 0;
  std::uint32_t converged = 0;
  double converged_fraction = 0.0;
  double median_tx = 0.0;
  double q25_tx = 0.0;
  double q75_tx = 0.0;
  double mean_local_share = 0.0;
  double mean_long_range_share = 0.0;
  double mean_control_share = 0.0;
  /// Mean far/near exchange ratio (decentralized cells; 0 otherwise).
  double mean_far_near_ratio = 0.0;
  /// Per-metric aggregates over every replicate that reported the key
  /// (ordered map: deterministic iteration for tables and sinks).
  std::map<std::string, MetricSummary> metrics;
  /// Per-replicate outcomes, kept when RunnerOptions::keep_replicates.
  std::vector<ReplicateResult> raw;

  /// Convenience: mean of a metric, or `fallback` when absent.
  double metric_mean(const std::string& key, double fallback = 0.0) const;
};

struct SweepSummary {
  std::string scenario;
  std::uint32_t replicates = 0;
  std::uint64_t master_seed = 0;
  unsigned threads = 1;
  double wall_seconds = 0.0;
  /// Shard coordinates this summary was produced under (0 of 1 = full run).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Replicates re-ingested from RunnerOptions::resume_from instead of run.
  std::uint64_t resumed_replicates = 0;
  /// Replicates actually executed by this process.
  std::uint64_t executed_replicates = 0;
  /// Process RSS high-water (KiB) sampled after the pool drained; 0 when
  /// the platform cannot report it.  Console-only diagnostic — never
  /// written to CSV/JSON sinks, which must stay bit-identical run-to-run.
  std::uint64_t peak_rss_kb = 0;
  std::vector<CellSummary> cells;
};

struct RunnerOptions {
  /// Worker count; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Keep per-replicate results in CellSummary::raw.
  bool keep_replicates = false;
  /// Aggregate memory budget for in-flight replicates, in bytes; 0 = no
  /// gating.  A replicate whose Cell::mem_hint_bytes would push the
  /// in-flight total past the budget waits for running replicates to
  /// retire first (one replicate is always admitted, so a single cell
  /// larger than the budget still runs — alone).  Gating changes only
  /// scheduling, never results: aggregation stays bit-identical.
  std::uint64_t memory_budget_bytes = 0;
  /// Round-robin shard partition of the flattened (cell_index, replicate)
  /// task stream (see shard_owns): this runner executes only the tasks with
  /// task % shard_count == shard_index, so k cooperating processes cover a
  /// sweep exactly once between them.  Seeds are untouched by sharding —
  /// every shard draws from the same replicate_seed stream the unsharded
  /// run would — and each shard's summary aggregates only its own
  /// replicates (merge the shard record files for the authoritative one).
  /// shard_count = 1 (default) runs everything.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Completed-set from a previous — possibly killed — run of the SAME
  /// (scenario, master_seed).  Tasks found here are skipped: their
  /// persisted results are re-ingested into the aggregation (after
  /// verifying the persisted seed against the scenario's seed-stream, so a
  /// checkpoint from an edited scenario definition fails loudly), making
  /// resumed aggregates bit-identical to an uninterrupted run at any
  /// thread count.  Progress does NOT fire for re-ingested replicates —
  /// they are already on disk.
  std::shared_ptr<const Checkpoint> resume_from;
  /// Called after each replicate finishes (serialized across workers).
  /// `cell_index` and `replicate` identify the slot — together with the
  /// scenario's master seed they are the replicate's durable identity,
  /// which streaming sinks persist for interrupted-sweep resume.  A throw
  /// from the callback (e.g. a sink whose disk filled) propagates out of
  /// Runner::run — a replicate is never reported complete when its record
  /// could not be persisted.
  std::function<void(const Cell& cell, std::size_t cell_index,
                     std::uint32_t replicate, const ReplicateResult& result)>
      progress;
  /// Optional liveness reporter (not owned; must outlive run()).  The
  /// runner notes each replicate's start and completion and bulk-credits
  /// re-ingested checkpoint records, so heartbeat files show real
  /// progress, not just process liveness.
  obs::Heartbeat* heartbeat = nullptr;
  /// Directory for durable MID-replicate snapshots (empty = disabled).
  /// With a cadence below, each running replicate periodically persists
  /// its full trajectory state through a SnapshotStore keyed on
  /// (scenario, master_seed, cell_index, replicate); a later run with the
  /// same options restores interrupted replicates mid-flight and finishes
  /// them bit-identically to an uninterrupted run (snapshots are pure
  /// reads of run state, so enabling them never changes results).  The
  /// replicate hands each snapshot to one committer thread and carries
  /// on; the committer keeps only a slot's newest uncommitted snapshot
  /// and writes it through SnapshotStore::save.  A replicate's snapshot
  /// is deleted once its result is durable — either persisted via
  /// `progress` or re-ingested from `resume_from` — after any commit of it
  /// already in progress, and a snapshot still queued then is never
  /// written.  run() returns only after every queued commit, and throws
  /// IoError when one failed; a throw from the pool still commits the
  /// queue first.  Probe cells (Cell::trial) run uncheckpointed: they are
  /// short, self-contained measurements with no engine state to persist.
  std::string snapshot_dir;
  /// Snapshot every N engine ticks (round-based protocols: top rounds);
  /// 0 = no tick cadence.
  std::uint64_t snapshot_every_ticks = 0;
  /// Snapshot every this many wall-clock seconds; 0 = no wall cadence.
  double snapshot_every_seconds = 0.0;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  const RunnerOptions& options() const noexcept { return options_; }

  /// Runs every (cell, replicate) of `scenario` this runner owns (see
  /// shard_index/shard_count) that is not already in resume_from, and
  /// aggregates per cell over the owned + re-ingested replicates.
  SweepSummary run(const Scenario& scenario) const;

 private:
  RunnerOptions options_;
};

/// Runs a single replicate.  Probe cells (cell.trial set) invoke their
/// TrialFn; protocol cells sample the graph and the initial field from a
/// fresh Rng(seed), centre/normalize, and execute the cell's protocol.
/// `checkpoints` snapshots the trial mid-flight at the policy's cadence and
/// a non-empty `resume` payload continues a snapshotted trial of the same
/// (cell, seed) bit-identically.  Probe cells ignore both (no engine
/// state).  Exposed for tests and custom experiment programs; Runner::run
/// wires it to a SnapshotStore when RunnerOptions::snapshot_dir is set.
ReplicateResult run_replicate(const Cell& cell, std::uint64_t seed,
                              const sim::CheckpointPolicy& checkpoints = {},
                              std::string_view resume = {});

/// Sorted union of metric keys across the cells of a summary — the column
/// set used by both the console metrics table and the CSV sink.
std::vector<std::string> metric_key_union(const SweepSummary& summary);

/// Sorted union of cell-parameter keys across the cells of a summary.
std::vector<std::string> param_key_union(const SweepSummary& summary);

/// Standard console rendering.  Protocol cells get one table row each
/// (median/quartile transmissions, per-node cost, category shares,
/// convergence), plus the far/near column when any cell exercised the
/// decentralized protocol; when any cell reported per-trial metrics a
/// second table shows the mean of every metric key per cell.
void print_summary(std::ostream& out, const SweepSummary& summary);

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_RUNNER_HPP
