#include "exp/runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "exp/snapshot_store.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/heartbeat.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "sim/field.hpp"
#include "stats/summary.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace geogossip::exp {

namespace {

/// Admission control for memory-hinted replicates: in-flight hints may sum
/// to at most `budget`, except that one replicate is always admitted (so a
/// hint larger than the whole budget degrades to run-alone, never
/// deadlock).  Purely a scheduling constraint — results are written to
/// preallocated slots either way, so summaries stay bit-identical.
class MemoryGate {
 public:
  explicit MemoryGate(std::uint64_t budget) : budget_(budget) {}

  void acquire(std::uint64_t hint) {
    if (budget_ == 0 || hint == 0) return;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return in_flight_ == 0 || in_flight_ + hint <= budget_;
    });
    in_flight_ += hint;
  }

  void release(std::uint64_t hint) {
    if (budget_ == 0 || hint == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= hint;
    }
    cv_.notify_all();
  }

 private:
  std::uint64_t budget_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t in_flight_ = 0;
};

/// Commits a run's mid-replicate snapshots on one background thread, so a
/// replicate hands its payload over and carries on instead of waiting for
/// the fsync.  Each slot (cell, replicate) has at most one queued job: a
/// newer save replaces a queued one, and retire() turns a queued save
/// into a removal, since the replicate's record is durable and the file
/// would be deleted right after its commit.  One thread runs the jobs in
/// queue order, so a slot's file is removed only after any commit of it
/// already in progress.  Memory stays at about one payload per running
/// replicate plus the one being committed.  The destructor commits every
/// queued job, so a run whose pool threw still leaves each interrupted
/// replicate's latest snapshot on disk.  A slot whose commit failed gets
/// no further save (its retire still runs), and finish() rethrows the
/// first failure.
class SnapshotCommitter {
 public:
  explicit SnapshotCommitter(const SnapshotStore& store) : store_(store) {
    try {
      thread_ = std::thread([this] { commit_loop(); });
    } catch (const std::system_error&) {
      // Without the thread, each save and retire runs on its caller.
    }
  }
  SnapshotCommitter(const SnapshotCommitter&) = delete;
  SnapshotCommitter& operator=(const SnapshotCommitter&) = delete;
  ~SnapshotCommitter() { stop(); }

  void save(std::size_t cell_index, std::uint32_t replicate,
            std::uint64_t seed, std::uint64_t ticks,
            std::string_view payload) {
    if (!thread_.joinable()) {
      store_.save(cell_index, replicate, seed, ticks, payload);
      return;
    }
    std::string copy(payload);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Job& job = queued(cell_index, replicate);
      job.seed = seed;
      job.ticks = ticks;
      job.retire = false;
      job.payload.swap(copy);
    }
    cv_.notify_one();
  }

  void retire(std::size_t cell_index, std::uint32_t replicate) {
    if (!thread_.joinable()) {
      store_.remove(cell_index, replicate);
      return;
    }
    std::string dropped;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Job& job = queued(cell_index, replicate);
      job.retire = true;
      job.payload.swap(dropped);
    }
    cv_.notify_one();
  }

  /// Commits every queued job, stops the thread and rethrows the first
  /// commit failure: a checkpoint that cannot be written fails the run.
  void finish() {
    stop();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  struct Job {
    std::size_t cell_index = 0;
    std::uint32_t replicate = 0;
    std::uint64_t seed = 0;
    std::uint64_t ticks = 0;
    std::string payload;
    bool retire = false;
  };

  /// The slot's queued job, appended when it has none.  Requires mu_.
  /// The queue holds at most one job per running or retired replicate.
  Job& queued(std::size_t cell_index, std::uint32_t replicate) {
    for (Job& job : queue_) {
      if (job.cell_index == cell_index && job.replicate == replicate) {
        return job;
      }
    }
    Job& job = queue_.emplace_back();
    job.cell_index = cell_index;
    job.replicate = replicate;
    return job;
  }

  void commit_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      Job job = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      const std::pair slot{job.cell_index, job.replicate};
      try {
        if (job.retire) {
          store_.remove(job.cell_index, job.replicate);
        } else if (!failed_.contains(slot)) {
          store_.save(job.cell_index, job.replicate, job.seed, job.ticks,
                      job.payload);
        }
      } catch (...) {
        // Read by finish() only after the join.
        if (!error_) error_ = std::current_exception();
        failed_.insert(slot);
      }
      job = Job{};  // frees the payload outside the lock
      lock.lock();
    }
  }

  void stop() noexcept {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  const SnapshotStore& store_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::exception_ptr error_;
  /// Slots whose commit threw.  Their later saves are dropped: the run
  /// fails anyway, and each retry would wait out atomic_write_file's
  /// backoff again.  Only the committer's thread touches it.
  std::set<std::pair<std::size_t, std::uint32_t>> failed_;
  std::thread thread_;
};

}  // namespace

ReplicateResult run_replicate(const Cell& cell, std::uint64_t seed,
                              const sim::CheckpointPolicy& checkpoints,
                              std::string_view resume) {
  GG_CHECK_ARG(cell.n >= 2, "run_replicate: cell.n >= 2");
  if (cell.trial) {
    // Probe trials: short, self-contained measurements with no engine
    // state worth persisting — snapshots do not apply.
    ReplicateResult result = cell.trial(cell, seed);
    result.seed = seed;
    return result;
  }
  // Everything up to the trial is a deterministic function of `seed`, so a
  // restored trial reconstructs the identical graph, field and protocol
  // configuration before the snapshot payload overwrites the trajectory.
  Rng rng(seed);
  const auto graph =
      graph::GeometricGraph::sample(cell.n, cell.radius_multiplier, rng);
  auto x0 = sim::make_field(cell.field, graph.points(), rng);
  sim::center_and_normalize(x0);

  ReplicateResult result = core::run_protocol_trial(
      cell.kind, graph, x0, rng, cell.options, checkpoints, resume);
  result.seed = seed;
  return result;
}

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

SweepSummary Runner::run(const Scenario& scenario) const {
  GG_CHECK_ARG(!scenario.cells.empty(), "Runner::run: scenario has cells");
  GG_CHECK_ARG(scenario.replicates >= 1, "Runner::run: replicates >= 1");
  GG_CHECK_ARG(options_.shard_count >= 1,
               "Runner::run: shard_count >= 1");
  GG_CHECK_ARG(options_.shard_index < options_.shard_count,
               "Runner::run: shard_index < shard_count");
  const Checkpoint* resume = options_.resume_from.get();
  if (resume != nullptr) {
    GG_CHECK_ARG(resume->scenario() == scenario.name &&
                     resume->master_seed() == scenario.master_seed,
                 "Runner::run: resume checkpoint is for a different "
                 "(scenario, master_seed)");
  }

  // Mid-replicate snapshot store (see RunnerOptions::snapshot_dir).  Tasks
  // own disjoint slots and restore on their own worker; the committer
  // writes and removes the files.
  std::unique_ptr<SnapshotStore> store;
  std::optional<SnapshotCommitter> committer;
  if (!options_.snapshot_dir.empty()) {
    store = std::make_unique<SnapshotStore>(
        options_.snapshot_dir, scenario.name, scenario.master_seed);
    committer.emplace(*store);
  }

  const std::size_t cell_count = scenario.cells.size();
  const std::uint32_t replicates = scenario.replicates;
  const std::size_t task_count = cell_count * replicates;
  std::vector<ReplicateResult> results(task_count);
  // Tasks outside this shard (and outside the checkpoint) stay unset and
  // are excluded from aggregation below.
  std::vector<std::uint8_t> have(task_count, 0);

  // Partition first, then subtract completed work: a shard resumed from
  // the merged k-shard file still re-runs only its own missing tasks.
  std::vector<std::size_t> pending;
  std::uint64_t resumed = 0;
  for (std::size_t task = 0; task < task_count; ++task) {
    if (!shard_owns(options_.shard_index, options_.shard_count, task)) {
      continue;
    }
    const std::size_t cell_index = task / replicates;
    const auto replicate = static_cast<std::uint32_t>(task % replicates);
    if (resume != nullptr) {
      if (const ReplicateResult* done = resume->find(cell_index, replicate)) {
        const Cell& cell = scenario.cells[cell_index];
        const std::size_t stream = cell.seed_stream == kAutoSeedStream
                                       ? cell_index
                                       : cell.seed_stream;
        const std::uint64_t expected =
            replicate_seed(scenario.master_seed, stream, replicate);
        GG_CHECK_ARG(
            done->seed == expected,
            "Runner::run: resume record seed mismatch at cell_index " +
                std::to_string(cell_index) + " replicate " +
                std::to_string(replicate) +
                " — checkpoint from a different scenario definition?");
        results[task] = *done;
        have[task] = 1;
        ++resumed;
        // The record is durable; a stale mid-replicate snapshot for the
        // slot would only be reloaded pointlessly on the next resume.
        if (committer) committer->retire(cell_index, replicate);
        continue;
      }
    }
    pending.push_back(task);
  }
  if (resumed > 0) {
    static const auto c_reingested = obs::counter("runner.resume_reingested");
    obs::add(c_reingested, resumed);
    if (options_.heartbeat != nullptr) {
      options_.heartbeat->add_completed(resumed);
    }
  }

  obs::Span sweep_span("sweep", "cells",
                       static_cast<std::int64_t>(cell_count), "replicates",
                       static_cast<std::int64_t>(replicates));
  // Per-task [start, end) times feed the synthetic per-cell envelope spans
  // below; sized only when telemetry is live so the dark path allocates
  // nothing.
  std::vector<std::array<std::uint64_t, 2>> task_times;
  const bool trace_tasks = obs::enabled();
  if (trace_tasks) task_times.resize(pending.size());

  ThreadPool pool(options_.threads);
  MemoryGate gate(options_.memory_budget_bytes);
  std::mutex progress_mu;
  const auto start = std::chrono::steady_clock::now();
  pool.run(pending.size(), [&](std::size_t index) {
    const std::size_t task = pending[index];
    const std::size_t cell_index = task / replicates;
    const auto replicate = static_cast<std::uint32_t>(task % replicates);
    const Cell& cell = scenario.cells[cell_index];
    const std::size_t stream = cell.seed_stream == kAutoSeedStream
                                   ? cell_index
                                   : cell.seed_stream;
    if (options_.heartbeat != nullptr) {
      options_.heartbeat->note_start(static_cast<std::int64_t>(cell_index),
                                     replicate);
    }
    gate.acquire(cell.mem_hint_bytes);
    try {
      const std::uint64_t seed =
          replicate_seed(scenario.master_seed, stream, replicate);
      // Restore-or-fresh + cadence wiring for the durable snapshot slot.
      // try_load happens inside the task (not the partition loop): it
      // reads a payload proportional to the cell's n, and the pool
      // parallelizes that the same way it parallelizes the replicates.
      std::string resume_payload;
      sim::CheckpointPolicy policy;
      if (store != nullptr) {
        if (auto snapshot = store->try_load(cell_index, replicate, seed)) {
          resume_payload = std::move(snapshot->payload);
          static const auto c_restored =
              obs::counter("runner.snapshot_restored");
          obs::add(c_restored);
        }
        policy.every_ticks = options_.snapshot_every_ticks;
        policy.every_seconds = options_.snapshot_every_seconds;
        SnapshotCommitter* slot_committer = &*committer;
        policy.persist = [slot_committer, cell_index, replicate, seed](
                             std::string_view payload, std::uint64_t ticks) {
          slot_committer->save(cell_index, replicate, seed, ticks, payload);
        };
      }
      // Envelope timestamps bracket the replicate Span's lifetime (not
      // the reverse), so the derived per-cell envelope always encloses
      // its replicates' spans in the exported trace.
      if (trace_tasks) task_times[index][0] = obs::now_ns();
      {
        obs::Span span("replicate", "cell",
                       static_cast<std::int64_t>(cell_index), "replicate",
                       replicate);
        results[task] = run_replicate(cell, seed, policy, resume_payload);
      }
      if (trace_tasks) task_times[index][1] = obs::now_ns();
    } catch (...) {
      gate.release(cell.mem_hint_bytes);
      throw;
    }
    gate.release(cell.mem_hint_bytes);
    if (options_.progress) {
      // The callback runs BEFORE the task is marked held: a sink that
      // throws (disk full, failed stream) keeps the replicate out of the
      // completed set, so a crash can never report work the checkpoint
      // file does not hold.
      std::lock_guard<std::mutex> lock(progress_mu);
      options_.progress(cell, cell_index, replicate, results[task]);
    }
    have[task] = 1;
    // Snapshot cleanup only AFTER the result is held (and, when a progress
    // sink is wired, persisted): a crash between the progress throw above
    // and here keeps the snapshot, so the replicate resumes instead of
    // restarting.
    if (committer) committer->retire(cell_index, replicate);
    if (options_.heartbeat != nullptr) options_.heartbeat->note_done();
  });
  // A throw above unwinds through the committer's destructor, which still
  // commits every queued save.
  if (committer) committer->finish();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  // Envelope spans: one per cell on the synthetic lane, spanning the
  // min..max recorded times of its executed replicates.  The pool
  // interleaves cells across workers, so real RAII spans cannot express
  // "the cell" — the envelope is derived after the pool drains instead.
  if (trace_tasks) {
    for (std::size_t c = 0; c < cell_count; ++c) {
      std::uint64_t lo = UINT64_MAX;
      std::uint64_t hi = 0;
      for (std::size_t index = 0; index < pending.size(); ++index) {
        if (pending[index] / replicates != c) continue;
        if (task_times[index][1] == 0) continue;  // task threw / never ran
        lo = std::min(lo, task_times[index][0]);
        hi = std::max(hi, task_times[index][1]);
      }
      if (hi == 0) continue;  // no executed replicates for this cell
      obs::record_span_on("cell", lo, hi, "cell",
                          static_cast<std::int64_t>(c), "n",
                          static_cast<std::int64_t>(scenario.cells[c].n));
    }
  }

  SweepSummary summary;
  summary.scenario = scenario.name;
  summary.replicates = replicates;
  summary.master_seed = scenario.master_seed;
  summary.threads = pool.thread_count();
  summary.wall_seconds = elapsed.count();
  summary.shard_index = options_.shard_index;
  summary.shard_count = options_.shard_count;
  summary.resumed_replicates = resumed;
  summary.executed_replicates = pending.size();
  summary.peak_rss_kb = obs::max_rss_kb();
  summary.cells.reserve(cell_count);

  obs::Span aggregate_span("aggregate", "cells",
                           static_cast<std::int64_t>(cell_count));
  // Aggregation runs sequentially in (cell, replicate) index order, so the
  // numbers below cannot depend on how the pool interleaved the tasks —
  // and, because re-ingested results occupy the same index slots they
  // would have been computed into, not on how many of them were resumed.
  for (std::size_t c = 0; c < cell_count; ++c) {
    CellSummary cs;
    cs.cell = scenario.cells[c];
    cs.cell_index = c;
    cs.replicates = 0;

    stats::Quantiles tx;
    double local = 0.0;
    double long_range = 0.0;
    double control = 0.0;
    double far_near = 0.0;
    std::uint32_t far_near_count = 0;
    std::map<std::string, stats::Quantiles> metric_samples;
    for (std::uint32_t r = 0; r < replicates; ++r) {
      if (!have[c * replicates + r]) continue;
      ++cs.replicates;
      const ReplicateResult& rr = results[c * replicates + r];
      if (options_.keep_replicates) cs.raw.push_back(rr);
      for (const auto& [key, value] : rr.metrics) {
        metric_samples[key].push(value);
      }
      if (!rr.converged) continue;
      ++cs.converged;
      const std::uint64_t total = rr.transmissions.total();
      tx.push(static_cast<double>(total));
      if (total > 0) {
        const double inv = 1.0 / static_cast<double>(total);
        local += inv * static_cast<double>(
                           rr.transmissions[sim::TxCategory::kLocal]);
        long_range += inv * static_cast<double>(
                                rr.transmissions[sim::TxCategory::kLongRange]);
        control += inv * static_cast<double>(
                             rr.transmissions[sim::TxCategory::kControl]);
      }
      if (rr.near_exchanges > 0) {
        far_near += static_cast<double>(rr.far_exchanges) /
                    static_cast<double>(rr.near_exchanges);
        ++far_near_count;
      }
    }
    // Denominator: the replicates aggregated HERE (== the scenario's count
    // for a full run, so uninterrupted arithmetic is unchanged; a shard's
    // partial view divides by its own share).
    cs.converged_fraction =
        cs.replicates == 0 ? 0.0
                           : static_cast<double>(cs.converged) /
                                 static_cast<double>(cs.replicates);
    if (tx.count() > 0) {
      cs.median_tx = tx.median();
      cs.q25_tx = tx.quantile(0.25);
      cs.q75_tx = tx.quantile(0.75);
    }
    if (cs.converged > 0) {
      const double inv = 1.0 / static_cast<double>(cs.converged);
      cs.mean_local_share = local * inv;
      cs.mean_long_range_share = long_range * inv;
      cs.mean_control_share = control * inv;
    }
    if (far_near_count > 0) {
      cs.mean_far_near_ratio =
          far_near / static_cast<double>(far_near_count);
    }
    for (auto& [key, samples] : metric_samples) {
      MetricSummary ms;
      ms.count = samples.count();
      ms.mean = samples.mean();
      ms.median = samples.median();
      ms.q95 = samples.quantile(0.95);
      ms.min = samples.min();
      ms.max = samples.max();
      cs.metrics.emplace(key, ms);
    }
    summary.cells.push_back(std::move(cs));
  }
  return summary;
}

double CellSummary::metric_mean(const std::string& key,
                                double fallback) const {
  const auto it = metrics.find(key);
  return it == metrics.end() ? fallback : it->second.mean;
}

namespace {

/// Width-friendly metric rendering across the 1e-6 (TV distances) to 1e5
/// (hop counts) range the probes produce.
std::string format_metric(double value) {
  if (value == 0.0) return "0";
  const double magnitude = std::abs(value);
  if (magnitude >= 1e5 || magnitude < 1e-3) return format_sci(value, 2);
  return format_fixed(value, 3);
}

void print_metrics_table(std::ostream& out, const SweepSummary& summary) {
  const auto keys = metric_key_union(summary);
  if (keys.empty()) return;

  std::vector<std::string> columns{"cell", "n"};
  for (const auto& key : keys) columns.push_back("mean " + key);
  ConsoleTable table(columns);
  table.set_alignment(0, Align::kLeft);
  for (const auto& cs : summary.cells) {
    if (cs.metrics.empty()) continue;
    table.cell(cs.cell.label).cell(format_count(cs.cell.n));
    for (const auto& key : keys) {
      const auto it = cs.metrics.find(key);
      table.cell(it == cs.metrics.end() ? "-"
                                        : format_metric(it->second.mean));
    }
    table.end_row();
  }
  table.print(out);
}

}  // namespace

std::vector<std::string> metric_key_union(const SweepSummary& summary) {
  std::set<std::string> keys;
  for (const auto& cs : summary.cells) {
    for (const auto& [key, ms] : cs.metrics) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> param_key_union(const SweepSummary& summary) {
  std::set<std::string> keys;
  for (const auto& cs : summary.cells) {
    for (const auto& [key, value] : cs.cell.params) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

void print_summary(std::ostream& out, const SweepSummary& summary) {
  bool any_far_near = false;
  bool any_protocol = false;
  for (const auto& cs : summary.cells) {
    if (cs.mean_far_near_ratio > 0.0) any_far_near = true;
    if (!cs.cell.trial) any_protocol = true;
  }

  if (any_protocol) {
    std::vector<std::string> columns{"cell",   "n",   "median tx", "q25",
                                     "q75",    "tx/node", "local%", "lr%",
                                     "ctrl%",  "conv"};
    if (any_far_near) columns.push_back("far/near");
    ConsoleTable table(columns);
    table.set_alignment(0, Align::kLeft);

    for (const auto& cs : summary.cells) {
      if (cs.cell.trial) continue;  // probe cells report via metrics below
      const bool has_tx = cs.converged > 0;
      table.cell(cs.cell.label)
          .cell(format_count(cs.cell.n))
          .cell(has_tx ? format_si(cs.median_tx) : "-")
          .cell(has_tx ? format_si(cs.q25_tx) : "-")
          .cell(has_tx ? format_si(cs.q75_tx) : "-")
          .cell(has_tx
                    ? format_fixed(
                          cs.median_tx / static_cast<double>(cs.cell.n), 1)
                    : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_local_share, 1) : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_long_range_share, 1)
                       : "-")
          .cell(has_tx ? format_fixed(100.0 * cs.mean_control_share, 1)
                       : "-")
          .cell(format_fixed(cs.converged_fraction, 2));
      if (any_far_near) {
        table.cell(cs.mean_far_near_ratio > 0.0
                       ? format_fixed(cs.mean_far_near_ratio, 4)
                       : "-");
      }
      table.end_row();
    }
    table.print(out);
  }
  print_metrics_table(out, summary);
  out << "[" << summary.scenario << "] replicates=" << summary.replicates
      << " seed=" << summary.master_seed << " threads=" << summary.threads
      << " wall=" << format_fixed(summary.wall_seconds, 2) << "s";
  if (summary.shard_count > 1) {
    out << " shard=" << summary.shard_index << "/" << summary.shard_count;
  }
  if (summary.resumed_replicates > 0) {
    out << " resumed=" << summary.resumed_replicates
        << " executed=" << summary.executed_replicates;
  }
  if (summary.peak_rss_kb > 0) {
    out << " peak_rss_kb=" << summary.peak_rss_kb;
  }
  out << "\n";
}

}  // namespace geogossip::exp
