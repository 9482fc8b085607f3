// Tests for the fleet coordinator (satellite #3 of the fault-tolerance
// PR): lease filename round-trips, the claim rename winning exactly once
// under a thread race, steal-only-after-expiry, renewal outliving the
// TTL, supersession detection, planner election (including dead-planner
// re-election and plan mismatch refusal), the solo-worker end-to-end
// path, a kill-at-every-phase battery over hand-built on-disk states,
// torn-snapshot fallback, merge bit-identity against an uninterrupted
// single-process run (through SweepCli's --fleet-merge), and the status
// board's invariant check (--fleet-status).
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/schema.hpp"
#include "exp/sink.hpp"
#include "exp/sweep_cli.hpp"
#include "fleet/lease.hpp"
#include "fleet/plan.hpp"
#include "fleet/status.hpp"
#include "fleet/worker.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "test_support.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Two small pairwise-gossip cells; fast enough to run dozens of times.
exp::Scenario fleet_scenario() {
  exp::Scenario scenario;
  scenario.name = "fleet-e2e";
  scenario.replicates = 2;
  scenario.master_seed = 21;
  for (const std::size_t n : {std::size_t{96}, std::size_t{128}}) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.options.eps = 1e-2;
  }
  return scenario;
}

/// Election options that never actually sleep (the fleet dir is local,
/// contention resolves in microseconds).
fleet::EnsurePlanOptions fast_plan_options() {
  fleet::EnsurePlanOptions options;
  options.stale_claim_seconds = 0.0;
  options.poll_seconds = 0.001;
  return options;
}

fleet::WorkerOptions worker_options(const std::string& fleet_dir,
                                    const std::string& worker,
                                    std::uint32_t batches) {
  fleet::WorkerOptions options;
  options.fleet_dir = fleet_dir;
  options.worker = worker;
  options.batches = batches;
  options.ttl_seconds = 0.2;
  options.threads = 2;
  options.poll_seconds = 0.02;
  options.stale_claim_seconds = 0.0;
  options.heartbeat_interval_seconds = 0.5;
  return options;
}

/// The reference: an uninterrupted single-process run at the same thread
/// count every fleet worker uses in these tests.
exp::SweepSummary reference_summary(const exp::Scenario& scenario) {
  exp::RunnerOptions options;
  options.threads = 2;
  return exp::Runner(options).run(scenario);
}

bool summaries_identical(const exp::SweepSummary& a,
                         const exp::SweepSummary& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& ca = a.cells[i];
    const auto& cb = b.cells[i];
    if (ca.converged != cb.converged) return false;
    if (ca.median_tx != cb.median_tx) return false;
    if (ca.q25_tx != cb.q25_tx) return false;
    if (ca.q75_tx != cb.q75_tx) return false;
    if (ca.mean_control_share != cb.mean_control_share) return false;
  }
  return true;
}

/// Parses the harness flags `args` into `cli`; returns parse()'s verdict.
std::optional<int> parse_cli(exp::SweepCli& cli,
                             std::vector<std::string> args) {
  args.insert(args.begin(), "fleet_test");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return cli.parse(static_cast<int>(argv.size()), argv.data());
}

/// Runs `scenario` through exp::SweepCli with the given harness flags,
/// requires success, and returns the aggregates.
exp::SweepSummary run_cli(const exp::Scenario& scenario,
                          std::vector<std::string> args) {
  exp::SweepCli cli("fleet_test", "merge fixture");
  EXPECT_FALSE(parse_cli(cli, std::move(args)).has_value());
  std::ostringstream out;
  EXPECT_EQ(cli.run(scenario, out), 0) << out.str();
  return cli.summary();
}

/// Folds every fleet record file and re-aggregates without executing
/// anything: an operator's --fleet-merge.
exp::SweepSummary merge_fleet(const std::string& fleet_dir,
                              const exp::Scenario& scenario,
                              const std::string& json_replicates = "") {
  std::vector<std::string> args{"--threads=2", "--fleet-merge",
                                "--fleet-dir=" + fleet_dir};
  if (!json_replicates.empty()) {
    args.push_back("--json-replicates=" + json_replicates);
  }
  return run_cli(scenario, std::move(args));
}

/// The status board of `fleet_dir` as of `now_unix_ms`.
struct Board {
  std::size_t problems = 0;
  std::string text;
  bool shows(const std::string& needle) const {
    return text.find(needle) != std::string::npos;
  }
};

Board board(const std::string& fleet_dir,
            std::int64_t now_unix_ms = fleet::LeaseStore::now_unix_ms()) {
  std::ostringstream out;
  Board result;
  result.problems = fleet::print_fleet_status(fleet_dir, now_unix_ms, out);
  result.text = out.str();
  return result;
}

/// The complete-fleet invariant, through the status board's check: every
/// batch done, and no ticket, lease, parked snapshot or temp file left.
void expect_fleet_clean(const std::string& fleet_dir, std::uint32_t batches) {
  const Board status = board(fleet_dir);
  EXPECT_EQ(status.problems, 0u) << status.text;
  const std::string done = std::to_string(batches);
  EXPECT_TRUE(status.shows("progress: " + done + "/" + done +
                           " batch(es) done — COMPLETE"))
      << status.text;
}

/// A fleet of fleet_scenario() in two batches, as its planner leaves it.
std::string planned_fleet(const std::string& leaf) {
  const std::string dir = fresh_temp_dir("ggfleet_" + leaf);
  fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  return dir;
}

/// plan.json content for fleet_scenario() with the given field tokens.
std::string plan_json(const std::string& schema, const std::string& batches) {
  return "{\"record\":\"fleet_plan\",\"schema\":" + schema +
         ",\"scenario\":\"fleet-e2e\",\"master_seed\":21,"
         "\"replicates\":2,\"cells\":2,\"batches\":" + batches + "}\n";
}

/// Runs a fresh worker to fleet completion and checks the full
/// robustness contract: complete, clean, and merge-identical to the
/// uninterrupted reference.
void complete_and_verify(const std::string& fleet_dir,
                         const exp::Scenario& scenario, std::uint32_t batches,
                         const exp::SweepSummary& reference,
                         const std::string& worker) {
  std::ostringstream out;
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, worker_options(fleet_dir, worker, batches),
                        out);
  EXPECT_TRUE(report.fleet_complete) << out.str();
  expect_fleet_clean(fleet_dir, batches);
  const exp::SweepSummary merged = merge_fleet(fleet_dir, scenario);
  EXPECT_EQ(merged.executed_replicates, 0u)
      << "merge had to execute work — fleet records are incomplete";
  EXPECT_TRUE(summaries_identical(merged, reference));
}

// -------------------------------------------------------- lease names ----

TEST(LeaseFilename, RoundTripsThroughParse) {
  const std::string name = fleet::lease_filename(12, 3, "w-abc_7");
  EXPECT_EQ(name, "batch-12.g3.w-abc_7.lease");
  std::uint32_t batch = 0;
  std::uint32_t generation = 0;
  std::string owner;
  ASSERT_TRUE(fleet::parse_lease_filename(name, &batch, &generation, &owner));
  EXPECT_EQ(batch, 12u);
  EXPECT_EQ(generation, 3u);
  EXPECT_EQ(owner, "w-abc_7");
}

TEST(LeaseFilename, RejectsDebrisAndForeignNames) {
  std::uint32_t batch = 0;
  std::uint32_t generation = 0;
  std::string owner;
  for (const std::string name :
       {"batch-1.g0.w1.lease.tmp.123", "batch-1.json", "batch-x.g0.w1.lease",
        "batch-1.gx.w1.lease", "batch-1.g0..lease", "", "lease"}) {
    EXPECT_FALSE(
        fleet::parse_lease_filename(name, &batch, &generation, &owner))
        << name;
  }
}

TEST(LeaseFilename, OwnerValidationGuardsFilenameSegments) {
  EXPECT_TRUE(fleet::valid_owner("w1-host_A"));
  EXPECT_FALSE(fleet::valid_owner(""));
  EXPECT_FALSE(fleet::valid_owner("has space"));
  EXPECT_FALSE(fleet::valid_owner("dot.dot"));
  EXPECT_FALSE(fleet::valid_owner("slash/slash"));
  EXPECT_FALSE(fleet::valid_owner(std::string(129, 'a')));
}

// -------------------------------------------------------------- claims ----

TEST(LeaseStore, RefusesADirectoryWithoutALayout) {
  const std::string dir = fresh_temp_dir("ggfleet_no_layout");
  fs::create_directories(dir);
  EXPECT_THROW(fleet::LeaseStore store(dir), ArgumentError);
}

TEST(LeaseStore, ClaimRaceHasExactlyOneWinner) {
  const std::string dir = fresh_temp_dir("ggfleet_claim_race");
  const exp::Scenario scenario = fleet_scenario();
  fleet::ensure_plan(dir, scenario, 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  constexpr int kRacers = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&store, &wins, i] {
      const std::string owner = "racer" + std::to_string(i);
      if (store.try_claim(0, owner, 30.0, "hb/" + owner + ".jsonl")) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& racer : racers) racer.join();

  EXPECT_EQ(wins.load(), 1);
  EXPECT_TRUE(store.queued().empty());
  ASSERT_EQ(store.leases().size(), 1u);
  EXPECT_EQ(store.leases()[0].generation, 0u);
}

TEST(LeaseStore, StealRefusesALiveLease) {
  const std::string dir = fresh_temp_dir("ggfleet_steal_live");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "alive", 30.0, "hb/alive.jsonl");
  ASSERT_TRUE(lease.has_value());
  EXPECT_FALSE(
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value());
}

TEST(LeaseStore, StealTakesAnExpiredLeaseAtTheNextGeneration) {
  const std::string dir = fresh_temp_dir("ggfleet_steal_expired");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "dying", 0.01, "hb/dying.jsonl");
  ASSERT_TRUE(lease.has_value());
  sleep_ms(30);  // let the 10ms TTL lapse with no renewal

  const auto stolen =
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl");
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->batch, 0u);
  EXPECT_EQ(stolen->generation, 1u);
  EXPECT_EQ(stolen->owner, "thief");
  EXPECT_FALSE(fs::exists(lease->path)) << "old generation not renamed away";
  ASSERT_EQ(store.leases().size(), 1u);
  EXPECT_EQ(store.leases()[0].generation, 1u);
}

TEST(LeaseStore, RenewalKeepsALeaseAliveWellPastItsTtl) {
  const std::string dir = fresh_temp_dir("ggfleet_renew_beats_ttl");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  // A 2 s TTL renewed every 0.5 s (under TTL/3, as a worker renews)
  // for 2.5 s: the renewals span more than one TTL.  A shorter TTL
  // flakes, because one fsynced renewal commit can take a few hundred
  // ms on a loaded host and the stamp is taken before it.
  auto lease = store.try_claim(0, "slow", 2.0, "hb/slow.jsonl");
  ASSERT_TRUE(lease.has_value());
  // An alive-but-slow owner must never look stealable.
  for (int i = 0; i < 5; ++i) {
    sleep_ms(500);
    ASSERT_TRUE(store.renew(*lease));
    EXPECT_FALSE(
        store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value())
        << "renewed lease was stolen on round " << i;
  }
}

TEST(LeaseStore, RenewDetectsSupersessionAndSelfCleans) {
  const std::string dir = fresh_temp_dir("ggfleet_renew_superseded");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  auto lease = store.try_claim(0, "victim", 0.01, "hb/victim.jsonl");
  ASSERT_TRUE(lease.has_value());
  sleep_ms(30);
  ASSERT_TRUE(
      store.try_steal(*lease, "thief", 30.0, "hb/thief.jsonl").has_value());

  EXPECT_FALSE(store.renew(*lease))
      << "original owner failed to notice the higher generation";
  // Exactly the thief's generation-1 lease remains.
  const auto leases = store.leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].generation, 1u);
  EXPECT_EQ(leases[0].owner, "thief");
}

TEST(LeaseStore, ReleaseMakesABatchInstantlyStealable) {
  const std::string dir = fresh_temp_dir("ggfleet_release");
  fleet::ensure_plan(dir, fleet_scenario(), 1, fast_plan_options());
  fleet::LeaseStore store(dir);

  const auto lease = store.try_claim(0, "quitter", 30.0, "hb/q.jsonl");
  ASSERT_TRUE(lease.has_value());
  store.release(*lease);
  EXPECT_TRUE(store.leases().empty());
}

TEST(LeaseStore, OutOfRangeTimeStampsReadAsNeverRenewed) {
  const std::string dir = planned_fleet("lease_stamps");
  const fleet::LeaseStore store(dir);
  const auto lease = store.try_claim(0, "w", 30.0, "hb/w.jsonl");
  ASSERT_TRUE(lease.has_value());
  // None of these converts to an int64 without undefined behaviour.
  for (const std::string stamp :
       {"NaN", "1e300", "-1e300", "Infinity", "18446744073709551615"}) {
    spit(lease->path, "{\"record\":\"fleet_lease\",\"acquired_unix_ms\":" +
                          stamp + ",\"expires_unix_ms\":" + stamp + "}");
    const std::vector<fleet::Lease> leases = store.leases();
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(leases[0].acquired_unix_ms, 0) << stamp;
    EXPECT_EQ(leases[0].expires_unix_ms, 0) << stamp;
  }
}

// ------------------------------------------------------------ the plan ----

TEST(FleetPlan, BatchTaskCountsPartitionTheTaskStream) {
  fleet::FleetPlan plan;
  plan.cells = 3;
  plan.replicates = 2;
  plan.batches = 4;
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < plan.batches; ++b) {
    total += plan.batch_task_count(b);
  }
  EXPECT_EQ(total, plan.total_tasks());
  EXPECT_EQ(plan.batch_task_count(0), 2u);  // 6 tasks round-robin over 4
  EXPECT_EQ(plan.batch_task_count(3), 1u);
}

TEST(FleetPlan, EnsurePlanFoundsValidatesAndAdopts) {
  const std::string dir = fresh_temp_dir("ggfleet_plan_lifecycle");
  const exp::Scenario scenario = fleet_scenario();

  const fleet::FleetPlan founded =
      fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  EXPECT_EQ(founded.batches, 2u);
  EXPECT_EQ(founded.scenario, scenario.name);
  // Layout is complete: tickets for both batches, all subdirectories.
  fleet::LeaseStore store(dir);
  EXPECT_EQ(store.queued(), (std::vector<std::uint32_t>{0, 1}));

  // Rejoining with the same shape is idempotent; batches = 0 adopts.
  EXPECT_EQ(fleet::ensure_plan(dir, scenario, 2, fast_plan_options()).batches,
            2u);
  EXPECT_EQ(fleet::ensure_plan(dir, scenario, 0, fast_plan_options()).batches,
            2u);

  // A different batch count, or any scenario-shape drift, is refused.
  EXPECT_THROW(fleet::ensure_plan(dir, scenario, 3, fast_plan_options()),
               ArgumentError);
  exp::Scenario edited = fleet_scenario();
  edited.master_seed = 22;
  EXPECT_THROW(fleet::ensure_plan(dir, edited, 2, fast_plan_options()),
               ArgumentError);
}

TEST(FleetPlan, DeadPlannerClaimIsSweptAndTheElectionReruns) {
  const std::string dir = fresh_temp_dir("ggfleet_dead_planner");
  // Simulate a planner SIGKILLed after winning the election but before
  // committing plan.json: the claim directory exists, nothing else does.
  fs::create_directories(fleet::claim_dir(dir));

  const fleet::FleetPlan plan =
      fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  EXPECT_EQ(plan.batches, 2u);
  EXPECT_TRUE(fs::exists(fleet::plan_path(dir)));
}

TEST(FleetPlan, WaitingOutAForeignElectionTimesOutLoudly) {
  const std::string dir = fresh_temp_dir("ggfleet_election_timeout");
  fs::create_directories(fleet::claim_dir(dir));

  fleet::EnsurePlanOptions options;
  options.stale_claim_seconds = 9999.0;  // the claim never looks dead
  options.wait_timeout_seconds = 0.2;
  options.poll_seconds = 0.1;
  std::vector<double> sleeps;
  options.sleeper = [&sleeps](double seconds) { sleeps.push_back(seconds); };
  EXPECT_THROW(fleet::ensure_plan(dir, fleet_scenario(), 2, options),
               IoError);
  EXPECT_GE(sleeps.size(), 2u);
}

TEST(FleetPlan, CorruptPlanStopsTheFleetInsteadOfRestartingIt) {
  const std::string dir = fresh_temp_dir("ggfleet_corrupt_plan");
  fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  spit(fleet::plan_path(dir), "{\"record\":\"fleet_plan\",\"schema\":");
  EXPECT_THROW(fleet::try_load_plan(dir), ArgumentError);
  // A field outside its integer range would load as some other batch
  // count (0 batches reads as a complete fleet), so it is corrupt too.
  for (const std::string batches :
       {"4294967297", "-1", "1e30", "NaN", "2.5"}) {
    spit(fleet::plan_path(dir),
         plan_json(std::to_string(exp::kSchemaVersion), batches));
    EXPECT_THROW(fleet::try_load_plan(dir), ArgumentError) << batches;
  }
}

TEST(FleetPlan, TenDigitBatchIdsNameNoBatch) {
  const std::string dir = planned_fleet("ten_digit_ids");
  const std::string batch0 = fleet::records_path(dir, 0, 0, "w");
  spit(batch0, "");
  // 4294967296 = 2^32, which uint32 arithmetic wraps to batch 0.
  spit(fleet::records_dir(dir) + "/batch-4294967296.g0.w.jsonl", "");
  spit(fleet::queue_dir(dir) + "/batch-4294967296.json", "");
  EXPECT_EQ(fleet::batch_record_files(dir, 0), std::vector{batch0});
  EXPECT_EQ(fleet::LeaseStore(dir).queued(),
            std::vector<std::uint32_t>({0, 1}));
}

TEST(FleetPlan, RequeueRestoresAClaimableTicket) {
  const std::string dir = fresh_temp_dir("ggfleet_requeue");
  fleet::ensure_plan(dir, fleet_scenario(), 2, fast_plan_options());
  fleet::LeaseStore store(dir);
  ASSERT_TRUE(store.try_claim(1, "w1", 30.0, "hb/w1.jsonl").has_value());
  ASSERT_EQ(store.queued(), (std::vector<std::uint32_t>{0}));

  fleet::requeue_batch(dir, 1);
  fleet::requeue_batch(dir, 1);  // idempotent
  EXPECT_EQ(store.queued(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(FleetPlan, AQuotedScenarioNameReadsBack) {
  const std::string dir = fresh_temp_dir("ggfleet_quoted_name");
  exp::Scenario scenario = fleet_scenario();
  scenario.name = "quote \" and back\\slash";
  fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  const std::optional<fleet::FleetPlan> plan = fleet::try_load_plan(dir);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->scenario, scenario.name);
}

TEST(FleetPlan, ATicketIsAnUnownedGenerationZeroLease) {
  const std::string dir = planned_fleet("ticket_is_lease");
  const std::string ticket = fleet::queue_ticket_path(dir, 1);
  fleet::Lease unowned;
  unowned.batch = 1;
  unowned.path = dir + "/unowned.lease";
  fleet::write_lease_file(unowned);
  EXPECT_EQ(slurp(ticket), slurp(unowned.path));
  EXPECT_EQ(parse_json(slurp(ticket)).get("record")->text, "fleet_lease");

  // Claimed by the rename alone, before any renewal: expired.
  fs::rename(ticket, fleet::leases_dir(dir) + "/" +
                         fleet::lease_filename(1, 0, "w"));
  const std::vector<fleet::Lease> leases = fleet::LeaseStore(dir).leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].batch, 1u);
  EXPECT_EQ(leases[0].expires_unix_ms, 0);
  EXPECT_TRUE(leases[0].expired(fleet::LeaseStore::now_unix_ms()));
}

// -------------------------------------------------------- status board ----

TEST(FleetStatus, ALiveFleetShowsEachBatchAndFlagsOnlyStaleTemps) {
  const std::string dir = planned_fleet("status_live");
  const fleet::LeaseStore store(dir);
  const auto lease = store.try_claim(0, "w", 30.0, "hb/w.jsonl");
  ASSERT_TRUE(lease.has_value());
  spit(fleet::records_path(dir, 0, 0, "w"), "");
  const std::int64_t now = fleet::LeaseStore::now_unix_ms();
  spit(fleet::heartbeat_path(dir, "w"),
       "{\"completed\":1,\"total\":2,\"lease\":\"batch-0.g0\","
       "\"flush_unix_ms\":" +
           std::to_string(now) + "}\n");
  spit(fleet::heartbeat_path(dir, "w") + ".tmp.7", "half a heartbeat");

  const Board live = board(dir, now);
  EXPECT_EQ(live.problems, 0u) << live.text;
  EXPECT_TRUE(live.shows("batch 0: leased: g0 w (")) << live.text;
  EXPECT_TRUE(live.shows("left), 1 record file(s)")) << live.text;
  EXPECT_TRUE(live.shows("batch 1: queued")) << live.text;
  EXPECT_TRUE(live.shows("worker w: 1/2 replicates, lease 'batch-0.g0'"))
      << live.text;

  // A second past the stale age the temp is crash debris, while the
  // lease, long expired, is reclaimable: the protocol working.
  const auto stale_ms = static_cast<std::int64_t>(kStaleTempSeconds * 1000);
  const Board later = board(dir, now + stale_ms + 1000);
  EXPECT_EQ(later.problems, 1u) << later.text;
  EXPECT_TRUE(later.shows("batch 0: leased: g0 w (EXPIRED ")) << later.text;
  EXPECT_TRUE(later.shows("INVALID: stale temp file hb/w.jsonl.tmp.7"))
      << later.text;

  // A claimant killed before its first renewal left no lease record.
  spit(lease->path, "not json at all");
  const Board unrenewed = board(dir, now);
  EXPECT_EQ(unrenewed.problems, 0u) << unrenewed.text;
  EXPECT_TRUE(unrenewed.shows("g0 w (never renewed — reclaimable)"))
      << unrenewed.text;
}

TEST(FleetStatus, ACompleteFleetLeavesNoResidue) {
  const std::string dir = planned_fleet("status_complete");
  for (std::uint32_t batch = 0; batch < 2; ++batch) {
    fs::remove(fleet::queue_ticket_path(dir, batch));
    spit(fleet::records_path(dir, batch, 0, "w"), "");
    fleet::write_done_marker(dir, batch, "w", "records/-", 2);
  }
  expect_fleet_clean(dir, 2);
  EXPECT_TRUE(board(dir).shows("batch 1: done (by w), 1 record file(s)"));

  // Each piece of residue is one violation that names it.
  const std::vector<std::pair<std::string, std::string>> residue = {
      {fleet::leases_dir(dir) + "/" + fleet::lease_filename(0, 1, "w"),
       "lease leases/batch-0.g1.w.lease"},
      {fleet::queue_ticket_path(dir, 0), "a queue ticket for batch 0"},
      {fleet::snaps_dir(dir) + "/snap-c0-r0.ggsnap",
       "parked snapshot snaps/snap-c0-r0.ggsnap"},
      {fleet::heartbeat_path(dir, "w") + ".tmp.1",
       "temp debris hb/w.jsonl.tmp.1"}};
  for (const auto& [path, problem] : residue) {
    spit(path, "{}");
    const Board dirty = board(dir);
    EXPECT_EQ(dirty.problems, 1u) << dirty.text;
    EXPECT_TRUE(dirty.shows("INVALID: complete fleet still has " + problem))
        << dirty.text;
    fs::remove(path);
  }
}

TEST(FleetStatus, StrandedAndOutOfPlanBatchesAreViolations) {
  const std::string dir = planned_fleet("status_stranded");
  fs::remove(fleet::queue_ticket_path(dir, 0));
  const Board stranded = board(dir);
  EXPECT_EQ(stranded.problems, 1u) << stranded.text;
  EXPECT_TRUE(stranded.shows("batch 0: STRANDED")) << stranded.text;
  EXPECT_TRUE(stranded.shows("INVALID: batch 0 is stranded")) << stranded.text;

  fleet::requeue_batch(dir, 0);
  fleet::write_done_marker(dir, 7, "w", "records/-", 0);
  const Board foreign = board(dir);
  EXPECT_EQ(foreign.problems, 1u) << foreign.text;
  EXPECT_TRUE(
      foreign.shows("INVALID: batch 7 is outside the plan's 2 batch(es)"))
      << foreign.text;
}

TEST(FleetStatus, AMissingOrForeignPlanIsAViolation) {
  const std::string empty = fresh_temp_dir("ggfleet_status_no_plan");
  fs::create_directories(empty);
  const Board missing = board(empty);
  EXPECT_EQ(missing.problems, 1u) << missing.text;
  EXPECT_TRUE(missing.shows("INVALID: no plan.json in")) << missing.text;

  const std::string dir = planned_fleet("status_schema");
  const std::string next = std::to_string(exp::kSchemaVersion + 1);
  spit(fleet::plan_path(dir), plan_json(next, "2"));
  const Board drift = board(dir);
  EXPECT_EQ(drift.problems, 1u) << drift.text;
  EXPECT_TRUE(drift.shows("carries schema " + next)) << drift.text;
}

TEST(FleetStatus, TheCliExitsOneOnAnyViolation) {
  const auto status = [](std::vector<std::string> args) {
    exp::SweepCli cli("fleet_test", "status fixture");
    return parse_cli(cli, std::move(args));
  };
  const std::string dir = planned_fleet("status_cli");
  EXPECT_EQ(status({"--fleet-dir=" + dir, "--fleet-status"}), 0);
  fs::remove(fleet::queue_ticket_path(dir, 1));
  EXPECT_EQ(status({"--fleet-dir=" + dir, "--fleet-status"}), 1);
  EXPECT_EQ(status({"--fleet-status"}), 1);
  EXPECT_EQ(status({"--fleet-dir=" + dir, "--fleet-status", "--fleet-merge"}),
            1);
}

// --------------------------------------------------------- solo worker ----

TEST(FleetWorker, SoloWorkerCompletesTheFleetCleanly) {
  const std::string dir = fresh_temp_dir("ggfleet_solo");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  std::ostringstream out;
  const fleet::WorkerReport report =
      fleet::run_worker(scenario, worker_options(dir, "solo", 2), out);

  EXPECT_TRUE(report.fleet_complete);
  EXPECT_EQ(report.batches_completed, 2u);
  EXPECT_EQ(report.batches_claimed, 2u);
  EXPECT_EQ(report.batches_stolen, 0u);
  EXPECT_EQ(report.replicates_executed, 4u);
  expect_fleet_clean(dir, 2);

  const exp::SweepSummary merged =
      merge_fleet(dir, scenario, dir + ".fleet-merge.jsonl");
  EXPECT_EQ(merged.executed_replicates, 0u);
  EXPECT_EQ(merged.resumed_replicates, 4u);
  EXPECT_TRUE(summaries_identical(merged, reference));
  // --fleet-merge writes the canonical record file --merge-only writes
  // from the same record files.
  std::string resume;
  for (const std::string& file : fleet::all_record_files(dir)) {
    resume += resume.empty() ? file : "," + file;
  }
  run_cli(scenario, {"--merge-only", "--resume=" + resume,
                     "--json-replicates=" + dir + ".merge-only.jsonl"});
  EXPECT_EQ(slurp(dir + ".fleet-merge.jsonl"),
            slurp(dir + ".merge-only.jsonl"));

  // The protocol artifacts a fleet leaves for humans and tooling.  The
  // obs counters are process-global totals, so assert the keys exist
  // rather than exact values (earlier tests may also have counted).
  EXPECT_TRUE(fs::exists(fleet::heartbeat_path(dir, "solo")));
  const std::string stats = slurp(fleet::worker_stats_path(dir, "solo"));
  EXPECT_NE(stats.find("\"record\":\"fleet_worker_stats\""),
            std::string::npos);
  EXPECT_NE(stats.find("\"batches_completed\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"fleet.lease_claimed\":"), std::string::npos);
  EXPECT_NE(stats.find("\"fleet.batch_completed\":"), std::string::npos);
}

TEST(FleetWorker, MaxBatchesStopsEarlyAndASecondWorkerFinishes) {
  const std::string dir = fresh_temp_dir("ggfleet_two_steps");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  std::ostringstream out;
  fleet::WorkerOptions first = worker_options(dir, "first", 2);
  first.max_batches = 1;
  const fleet::WorkerReport step =
      fleet::run_worker(scenario, first, out);
  EXPECT_FALSE(step.fleet_complete);
  EXPECT_EQ(step.batches_completed, 1u);

  complete_and_verify(dir, scenario, 2, reference, "second");
}

TEST(FleetWorker, RefusesBadOptions) {
  const std::string dir = fresh_temp_dir("ggfleet_bad_options");
  std::ostringstream out;
  fleet::WorkerOptions options = worker_options(dir, "bad name", 2);
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
  options = worker_options(dir, "ok", 2);
  options.ttl_seconds = 0.0;
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
  // batches = 0 refuses to FOUND a fleet (nothing to adopt here).
  options = worker_options(dir, "ok", 0);
  EXPECT_THROW(fleet::run_worker(fleet_scenario(), options, out),
               ArgumentError);
}

// ----------------------------------------------- kill at every phase ----

// Simulates a worker SIGKILLed at each phase of the protocol by building
// exactly the on-disk state such a kill leaves, then asserts one fresh
// worker drives the fleet to a complete, clean, merge-identical end.
TEST(FleetWorker, RecoversFromAKillAtEveryProtocolPhase) {
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);
  constexpr std::uint32_t kBatches = 2;

  {  // Phase: killed after the election claim, before plan.json.
    const std::string dir = fresh_temp_dir("ggfleet_kill_mid_election");
    fs::create_directories(fleet::claim_dir(dir));
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed after founding — plan + tickets, nothing claimed.
    const std::string dir = fresh_temp_dir("ggfleet_kill_after_plan");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed between the claim rename and the first renewal —
     // the lease file still holds ticket content (expires = 0), which
     // must read as instantly reclaimable.
    const std::string dir = fresh_temp_dir("ggfleet_kill_pre_renewal");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fs::rename(fleet::queue_ticket_path(dir, 0),
               fs::path(fleet::leases_dir(dir)) /
                   fleet::lease_filename(0, 0, "dead"));
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed mid-batch after renewing — a real lease whose TTL
     // then lapses, no records written yet — while committing its
     // heartbeat, whose temp file lingers.
    const std::string dir = fresh_temp_dir("ggfleet_kill_mid_batch");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fleet::LeaseStore store(dir);
    ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
    spit(fleet::heartbeat_path(dir, "dead") + ".tmp.4242",
         "{\"record\":\"heartbeat\"");
    sleep_ms(30);
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }

  {  // Phase: killed mid-batch with partial records and a torn final
     // line.  The new owner folds the finished record, seals the torn
     // debris, and runs only the remainder.
    const std::string dir = fresh_temp_dir("ggfleet_kill_torn_records");
    fleet::ensure_plan(dir, scenario, kBatches, fast_plan_options());
    fleet::LeaseStore store(dir);
    ASSERT_TRUE(store.try_claim(0, "dead", 0.01, "hb/dead.jsonl").has_value());
    // Batch 0 of 2 owns tasks {0, 2} = (cell 0, rep 0) and (cell 1, rep 0).
    // Persist the first the way the dead worker would have...
    const exp::ReplicateResult done = exp::run_replicate(
        scenario.cells[0],
        exp::replicate_seed(scenario.master_seed, 0, 0));
    const std::string records = fleet::records_path(dir, 0, 0, "dead");
    {
      exp::JsonLinesSink sink(records);
      sink.write_replicate(scenario.name, scenario.master_seed,
                           scenario.cells[0], 0, 0, done);
    }
    // ...then append the torn debris of the record it died writing.
    std::ofstream torn(records, std::ios::binary | std::ios::app);
    torn << "{\"record\":\"replicate\",\"scenario\":\"fleet-e2e\",\"cell";
    torn.close();
    sleep_ms(30);
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
    // The dead owner's record was reused, not re-run: folding every
    // record file yields 4 distinct records with zero duplicates.
    exp::Checkpoint fold(scenario.name, scenario.master_seed);
    for (const std::string& file : fleet::all_record_files(dir)) {
      fold.load_file(file);
    }
    EXPECT_EQ(fold.stats().accepted, 4u);
    EXPECT_EQ(fold.stats().duplicate, 0u);
  }

  {  // Phase: killed between the done marker and the lease sweep — the
     // batch is complete but its lease file lingers.
    const std::string dir = fresh_temp_dir("ggfleet_kill_before_sweep");
    std::ostringstream out;
    fleet::WorkerOptions first = worker_options(dir, "finisher", kBatches);
    first.max_batches = 1;
    const fleet::WorkerReport step =
        fleet::run_worker(scenario, first, out);
    ASSERT_EQ(step.batches_completed, 1u);
    const std::uint32_t finished =
        fleet::done_batches(dir, kBatches).at(0);
    spit((fs::path(fleet::leases_dir(dir)) /
          fleet::lease_filename(finished, 1, "finisher"))
             .string(),
         "{\"record\":\"fleet_lease\"}");
    complete_and_verify(dir, scenario, kBatches, reference, "rescue");
  }
}

TEST(FleetWorker, TornSnapshotFallsBackToRestartFromScratch) {
  const std::string dir = fresh_temp_dir("ggfleet_torn_snapshot");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  fleet::ensure_plan(dir, scenario, 2, fast_plan_options());
  // A dead worker parked a snapshot for (cell 0, replicate 0), but the
  // kill tore it: the reclaiming worker must fail its restore cleanly
  // and rerun the replicate from scratch, bit-identically.
  spit((fs::path(fleet::snaps_dir(dir)) / "snap-c0-r0.ggsnap").string(),
       "GGSNAPnot really a snapshot");
  fs::rename(fleet::queue_ticket_path(dir, 0),
             fs::path(fleet::leases_dir(dir)) /
                 fleet::lease_filename(0, 0, "dead"));

  complete_and_verify(dir, scenario, 2, reference, "rescue");
}

// --------------------------------------------------------------- merge ----

// The real deployment shape: one worker per PROCESS, coordinating only
// through the fleet directory.  fork() gives each worker its own obs
// state and its own crash domain, exactly like production — and keeps
// obs::snapshot()'s quiescence contract, which two in-process workers
// would violate.
TEST(FleetWorker, TwoProcessFleetMergesIdenticallyToASingleProcessRun) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "fork()-based multi-process test is unix-only";
#else
  const std::string dir = fresh_temp_dir("ggfleet_two_workers");
  const exp::Scenario scenario = fleet_scenario();
  const exp::SweepSummary reference = reference_summary(scenario);

  const auto spawn_worker = [&](const std::string& worker) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Child: run to fleet completion, report through the exit code.
    // Both founders race the election, so the claim grace must be real.
    fleet::WorkerOptions options = worker_options(dir, worker, 2);
    options.stale_claim_seconds = 30.0;
    std::ostringstream sink;
    try {
      const fleet::WorkerReport report =
          fleet::run_worker(scenario, options, sink);
      _exit(report.fleet_complete ? 0 : 2);
    } catch (...) {
      _exit(1);
    }
  };

  const pid_t pid_a = spawn_worker("wa");
  ASSERT_GT(pid_a, 0);
  const pid_t pid_b = spawn_worker("wb");
  ASSERT_GT(pid_b, 0);
  for (const pid_t pid : {pid_a, pid_b}) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  expect_fleet_clean(dir, 2);
  // Both workers wrote their protocol artifacts.
  EXPECT_TRUE(fs::exists(fleet::worker_stats_path(dir, "wa")));
  EXPECT_TRUE(fs::exists(fleet::worker_stats_path(dir, "wb")));

  const exp::SweepSummary merged = merge_fleet(dir, scenario);
  EXPECT_EQ(merged.executed_replicates, 0u);
  EXPECT_TRUE(summaries_identical(merged, reference));
#endif
}

}  // namespace
}  // namespace geogossip
