#include "fleet/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "obs/heartbeat.hpp"
#include "obs/telemetry.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"
#include "support/retry.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

/// Background lease renewer: extends the lease every ttl/3 until stopped
/// or the lease is lost.  A lost lease does NOT interrupt the batch —
/// records are idempotent, so finishing and deduplicating beats throwing
/// away compute — but it is counted and logged by LeaseStore.
class LeaseRenewer {
 public:
  LeaseRenewer(const LeaseStore& store, Lease lease)
      : store_(store), lease_(std::move(lease)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LeaseRenewer() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  bool lost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lost_;
  }

 private:
  void loop() {
    const auto period = std::chrono::duration<double>(
        lease_.ttl_seconds / 3.0);
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      if (cv_.wait_for(lock, period, [this] { return stopping_; })) break;
      lock.unlock();
      const bool held = store_.renew(lease_);
      lock.lock();
      if (!held) {
        lost_ = true;
        break;  // the file is gone; further renewals cannot help
      }
    }
  }

  const LeaseStore& store_;
  Lease lease_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool lost_ = false;
  std::thread thread_;
};

/// Runs one leased batch as Runner shard (batch, B): fold every record
/// file previous owners left, append our own, share the snaps dir so a
/// dead owner's mid-replicate snapshot resumes bit-identically.
void run_batch(const exp::Scenario& scenario, const FleetPlan& plan,
               const LeaseStore& store, const Lease& lease,
               const WorkerOptions& options, obs::Heartbeat& heartbeat,
               WorkerReport& report, std::ostream& out) {
  obs::Span span("fleet_batch", "batch",
                 static_cast<std::int64_t>(lease.batch), "generation",
                 static_cast<std::int64_t>(lease.generation));
  heartbeat.set_lease(lease.label());
  heartbeat.add_total(plan.batch_task_count(lease.batch));

  // Fold the batch's existing records (other generations, other owners,
  // or our own killed predecessor) BEFORE opening our append sink.
  const auto checkpoint = exp::fold_records(
      scenario, batch_record_files(options.fleet_dir, lease.batch),
      "fleet: batch " + std::to_string(lease.batch) + " resume");
  const std::string own_records = records_path(
      options.fleet_dir, lease.batch, lease.generation, lease.owner);

  exp::JsonLinesSink sink(own_records, exp::JsonLinesSink::Mode::kAppend);

  exp::RunnerOptions runner_options;
  runner_options.threads = options.threads;
  runner_options.memory_budget_bytes = options.memory_budget_bytes;
  runner_options.shard_index = lease.batch;
  runner_options.shard_count = plan.batches;
  runner_options.resume_from = checkpoint;
  runner_options.heartbeat = &heartbeat;
  runner_options.snapshot_dir = snaps_dir(options.fleet_dir);
  runner_options.snapshot_every_ticks = options.snapshot_every_ticks;
  runner_options.snapshot_every_seconds = options.snapshot_every_seconds;
  const std::string scenario_name = scenario.name;
  const std::uint64_t master_seed = scenario.master_seed;
  runner_options.progress = [&sink, scenario_name, master_seed](
                                const exp::Cell& cell,
                                std::size_t cell_index,
                                std::uint32_t replicate,
                                const exp::ReplicateResult& result) {
    sink.write_replicate(scenario_name, master_seed, cell, cell_index,
                         replicate, result);
  };

  exp::SweepSummary summary;
  {
    LeaseRenewer renewer(store, lease);
    summary = exp::Runner(runner_options).run(scenario);
    renewer.stop();
  }

  report.replicates_executed += summary.executed_replicates;
  report.replicates_resumed += summary.resumed_replicates;

  // Completion order matters for crash-only recovery: done marker FIRST
  // (the batch is finished the instant it lands), then the lease sweep.
  // Dying in between leaves residue that any idle worker cleans later.
  write_done_marker(options.fleet_dir, lease.batch, lease.owner,
                    "records/" + fs::path(own_records).filename().string(),
                    summary.executed_replicates +
                        summary.resumed_replicates);
  store.remove_lease_files(lease.batch);
  obs::add(obs::counter("fleet.batch_completed"), 1);
  heartbeat.set_lease("");
  ++report.batches_completed;
  out << "fleet: " << lease.owner << " completed " << lease.label() << " ("
      << summary.executed_replicates << " executed, "
      << summary.resumed_replicates << " resumed)\n";
}

}  // namespace

WorkerReport run_worker(const exp::Scenario& scenario,
                        const WorkerOptions& options, std::ostream& out) {
  GG_CHECK_ARG(valid_owner(options.worker),
               "run_worker: worker id must be non-empty [A-Za-z0-9_-]");
  GG_CHECK_ARG(options.ttl_seconds > 0.0,
               "run_worker: ttl_seconds must be positive");
  GG_CHECK_ARG(options.poll_seconds > 0.0,
               "run_worker: poll_seconds must be positive");

  // The worker's stats file (obs counters: fleet.lease_*,
  // runner.snapshot_restored, ...) is part of the fleet's observability
  // contract, so fleet mode always records.
  obs::set_enabled(true);

  EnsurePlanOptions plan_options;
  plan_options.stale_claim_seconds = options.stale_claim_seconds;
  const FleetPlan plan =
      ensure_plan(options.fleet_dir, scenario, options.batches, plan_options);
  const LeaseStore store(options.fleet_dir);

  obs::Heartbeat::Options hb;
  hb.path = heartbeat_path(options.fleet_dir, options.worker);
  hb.interval_seconds = options.heartbeat_interval_seconds;
  hb.scenario = scenario.name;
  hb.worker = options.worker;
  hb.total_replicates = 0;  // accrues per claimed batch
  obs::Heartbeat heartbeat(std::move(hb));

  const std::string hb_relative = "hb/" + options.worker + ".jsonl";
  WorkerReport report;
  const auto persist_stats = [&] {
    write_worker_stats(options.fleet_dir, options.worker, report);
  };

  while (true) {
    const std::vector<std::uint32_t> done =
        done_batches(options.fleet_dir, plan.batches);
    if (done.size() == plan.batches) {
      // Before declaring victory, sweep residue of batches whose
      // finisher was killed between its done marker and its lease sweep,
      // and tickets a failing worker re-queued for a batch a lease thief
      // then completed — a complete fleet leaves no claimable work.
      for (const Lease& lease : store.leases()) {
        if (batch_done(options.fleet_dir, lease.batch)) {
          store.remove_lease_files(lease.batch);
        }
      }
      for (const std::uint32_t batch : done) {
        std::error_code ec;
        fs::remove(queue_ticket_path(options.fleet_dir, batch), ec);
      }
      // Snapshot temp debris of workers killed mid-save outlives the
      // SnapshotStore's age-gated sweep when the fleet finishes fast;
      // with every batch done there is no in-flight writer left to
      // protect, so sweep it all.  Heartbeat temps of workers killed
      // mid-commit go too: a live worker whose in-flight heartbeat temp
      // this removes only retries that commit.
      sweep_stale_temps(snaps_dir(options.fleet_dir), 0.0);
      sweep_stale_temps(hb_dir(options.fleet_dir), 0.0);
      report.fleet_complete = true;
      break;
    }
    if (options.max_batches > 0 &&
        report.batches_completed >= options.max_batches) {
      break;
    }

    // On a batch failure, put the ticket back FIRST, then drop the lease
    // — in that order a kill in between leaves a benign ticket+lease
    // pair, never an unreachable batch — and rethrow: a worker fails
    // loudly, the survivors claim the re-queued batch immediately.
    const auto run_guarded = [&](const Lease& lease) {
      try {
        run_batch(scenario, plan, store, lease, options, heartbeat, report,
                  out);
      } catch (...) {
        obs::add(obs::counter("fleet.batch_failed"), 1);
        requeue_batch(options.fleet_dir, lease.batch);
        store.release(lease);
        throw;
      }
    };

    bool progressed = false;
    try {
      // Claim queued work first.  Start the scan at an owner-dependent
      // offset so k workers arriving together spread across the queue
      // instead of all fighting over batch 0.
      const std::vector<std::uint32_t> queued = store.queued();
      if (!queued.empty()) {
        std::size_t offset = 0;
        for (const char c : options.worker) {
          offset = offset * 31 + static_cast<unsigned char>(c);
        }
        offset %= queued.size();
        for (std::size_t i = 0; i < queued.size() && !progressed; ++i) {
          const std::uint32_t batch = queued[(offset + i) % queued.size()];
          if (batch_done(options.fleet_dir, batch)) {
            // A failing worker's re-queued ticket can outlive the
            // batch's completion by a lease thief; once the done marker
            // exists the ticket is dead weight — remove it.
            std::error_code ec;
            fs::remove(queue_ticket_path(options.fleet_dir, batch), ec);
            continue;
          }
          if (auto lease = store.try_claim(batch, options.worker,
                                           options.ttl_seconds,
                                           hb_relative)) {
            ++report.batches_claimed;
            run_guarded(*lease);
            progressed = true;
          }
        }
      }

      if (!progressed) {
        const std::int64_t now = LeaseStore::now_unix_ms();
        for (const Lease& lease : store.leases()) {
          if (batch_done(options.fleet_dir, lease.batch)) {
            // Completed batch with lease residue: its finisher died
            // between the done marker and the sweep.  Clean it up.
            store.remove_lease_files(lease.batch);
            continue;
          }
          if (!lease.expired(now)) continue;
          if (auto stolen = store.try_steal(lease, options.worker,
                                            options.ttl_seconds,
                                            hb_relative)) {
            ++report.batches_stolen;
            run_guarded(*stolen);
            progressed = true;
            break;
          }
        }
      }
    } catch (...) {
      persist_stats();
      heartbeat.stop();
      throw;  // run_guarded already re-queued the batch
    }

    if (progressed) {
      persist_stats();
      continue;
    }
    // Nothing claimable or stealable right now: other workers hold live
    // leases.  Wait a jittered poll and look again — if one of them
    // dies, its lease expires into our steal scan above.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        detail::jittered(options.poll_seconds, 0.25)));
  }

  heartbeat.stop();
  persist_stats();
  out << "fleet: " << options.worker << " exiting — "
      << report.batches_completed << " batch(es) completed ("
      << report.batches_claimed << " claimed, " << report.batches_stolen
      << " stolen), fleet "
      << (report.fleet_complete ? "complete" : "still in progress") << "\n";
  return report;
}

void write_worker_stats(const std::string& fleet_dir,
                        const std::string& worker,
                        const WorkerReport& report) {
  const obs::Snapshot snapshot = obs::snapshot();
  std::string content = "{\"record\":\"fleet_worker_stats\",\"worker\":\"";
  content += worker;
  content += "\",\"batches_completed\":";
  content += std::to_string(report.batches_completed);
  content += ",\"batches_claimed\":";
  content += std::to_string(report.batches_claimed);
  content += ",\"batches_stolen\":";
  content += std::to_string(report.batches_stolen);
  content += ",\"replicates_executed\":";
  content += std::to_string(report.replicates_executed);
  content += ",\"replicates_resumed\":";
  content += std::to_string(report.replicates_resumed);
  content += ",\"fleet_complete\":";
  content += report.fleet_complete ? "true" : "false";
  content += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) content += ",";
    first = false;
    content += "\"";
    content += name;  // counter names are dotted identifiers
    content += "\":";
    content += std::to_string(value);
  }
  content += "}}\n";
  try {
    atomic_write_file(worker_stats_path(fleet_dir, worker), content);
  } catch (const IoError& error) {
    log_error("fleet: writing worker stats failed: ", error.what());
  }
}

}  // namespace geogossip::fleet
