// Tests for the Snapshot/Restore protocol API (mid-replicate durability):
// exact RNG stream-position save/restore, the binary writer/reader pair and
// its truncation behaviour, the per-family interrupted-vs-uninterrupted
// bit-identity contract, the torn-write-safe SnapshotStore file format
// (truncation at every byte, checksum corruption, identity and schema
// mismatches), the JSONL schema stamp, and the Runner's end-to-end
// crash/resume path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/convergence.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/schema.hpp"
#include "exp/sink.hpp"
#include "exp/snapshot_store.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/telemetry.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/snapshot.hpp"
#include "test_support.hpp"

namespace geogossip {
namespace {

// ------------------------------------------------------------------ Rng ----

TEST(RngSnapshot, RestoreContinuesTheStreamBitIdentically) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.next_u64();  // advance to mid-stream

  SnapshotWriter w;
  rng.save(w);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next_u64());

  Rng other(999);  // deliberately different seed: restore must overwrite
  SnapshotReader r(w.bytes());
  other.restore(r);
  r.finish();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(other.next_u64(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(RngSnapshot, SpareNormalIsPartOfTheStreamPosition) {
  // Marsaglia polar generates normals in pairs and caches the spare; a
  // save taken between the two must restore the cached value, or every
  // draw after the next normal() shifts.
  Rng rng(77);
  (void)rng.normal();  // leaves a spare cached (or not — both paths valid)

  SnapshotWriter w;
  rng.save(w);
  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.normal());

  Rng other(1);
  (void)other.normal();  // desync other's spare state before restoring
  SnapshotReader r(w.bytes());
  other.restore(r);
  r.finish();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(other.normal(), expected[static_cast<std::size_t>(i)]);
  }
}

// -------------------------------------------------------- writer/reader ----

SnapshotWriter full_writer() {
  SnapshotWriter w;
  w.u8(200);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-0.1);
  w.str("length-prefixed \0 binary");  // literal: embedded NUL truncates at
                                       // the \0 — still a valid str payload
  w.u8_span(std::vector<std::uint8_t>{1, 2, 3});
  w.u32_span(std::vector<std::uint32_t>{7, 8});
  w.f64_span(std::vector<double>{1.5, -2.5, 3.25});
  return w;
}

void read_all(SnapshotReader& r) {
  (void)r.u8();
  (void)r.u32();
  (void)r.u64();
  (void)r.f64();
  (void)r.str();
  (void)r.u8_span();
  (void)r.u32_span();
  (void)r.f64_span();
  r.finish();
}

TEST(SnapshotFormat, RoundTripsEveryFieldType) {
  const auto w = full_writer();
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -0.1);  // exact: IEEE bit pattern, not text
  EXPECT_EQ(r.str(), "length-prefixed ");
  EXPECT_EQ(r.u8_span(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.u32_span(), (std::vector<std::uint32_t>{7, 8}));
  EXPECT_EQ(r.f64_span(), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_TRUE(r.at_end());
  r.finish();
}

TEST(SnapshotFormat, EveryTruncationPointThrowsIoError) {
  const std::string bytes = full_writer().bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SnapshotReader r(std::string_view(bytes).substr(0, len));
    EXPECT_THROW(read_all(r), IoError) << "prefix length " << len;
  }
}

TEST(SnapshotFormat, TrailingBytesAreRejectedByFinish) {
  const std::string bytes = full_writer().bytes() + "x";
  SnapshotReader r(bytes);
  EXPECT_THROW(read_all(r), IoError);
}

TEST(SnapshotFormat, NanPayloadRoundTripsExactly) {
  SnapshotWriter w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(-std::numeric_limits<double>::infinity());
  SnapshotReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  r.finish();
}

// -------------------------------------------- per-family bit-identity ----

using core::ProtocolKind;
using core::TrialOptions;
using core::TrialOutcome;
using graph::GeometricGraph;

bool outcomes_identical(const TrialOutcome& a, const TrialOutcome& b) {
  return a.converged == b.converged && a.final_error == b.final_error &&
         a.sum_drift == b.sum_drift &&
         a.transmissions.by_category == b.transmissions.by_category &&
         a.far_exchanges == b.far_exchanges &&
         a.near_exchanges == b.near_exchanges;
}

class FamilySnapshot : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FamilySnapshot, InterruptedRunFinishesBitIdentically) {
  const ProtocolKind kind = GetParam();
  Rng graph_rng(4000);
  const auto g = GeometricGraph::sample(256, 2.0, graph_rng);
  Rng field_rng(4001);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = 1e-2;

  // Round-based kinds count the cadence in top rounds; everything else in
  // engine ticks.  Both must fire several times inside this tiny trial.
  const bool round_based = kind == ProtocolKind::kAffineOneLevel ||
                           kind == ProtocolKind::kAffineMultilevel;
  sim::CheckpointPolicy policy;
  policy.every_ticks = round_based ? 2 : 512;

  // Uninterrupted reference + captured first-snapshot payload.
  std::string mid_payload;
  std::uint64_t mid_ticks = 0;
  policy.persist = [&](std::string_view payload, std::uint64_t ticks) {
    if (mid_payload.empty()) {
      mid_payload.assign(payload.data(), payload.size());
      mid_ticks = ticks;
    }
  };
  Rng rng_a(4002);
  const auto reference =
      core::run_protocol_trial(kind, g, x0, rng_a, options, policy, {});
  ASSERT_FALSE(mid_payload.empty())
      << "checkpoint cadence never fired — the interruption test is vacuous";

  // "Crash" after the first snapshot: a fresh trial of the identical
  // configuration restores the payload and must finish bit-identically.
  Rng rng_b(4002);
  const auto resumed = core::run_protocol_trial(
      kind, g, x0, rng_b, options, sim::CheckpointPolicy{}, mid_payload);
  EXPECT_TRUE(outcomes_identical(reference, resumed))
      << core::protocol_kind_name(kind) << ": resumed from tick "
      << mid_ticks << " ref_err=" << reference.final_error
      << " resumed_err=" << resumed.final_error;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FamilySnapshot,
    ::testing::Values(ProtocolKind::kBoydPairwise,
                      ProtocolKind::kDimakisGeographic,
                      ProtocolKind::kPathAveraging,
                      ProtocolKind::kAffineOneLevel,
                      ProtocolKind::kAffineMultilevel,
                      ProtocolKind::kAffineAsync,
                      ProtocolKind::kAffineDecentralized),
    [](const auto& info) {
      std::string name(core::protocol_kind_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FamilySnapshotContract, ResumePayloadSelfIdentifiesProtocolAndSize) {
  // Restoring a payload into a different kind (or size) must fail loudly,
  // never continue with invented state.
  Rng graph_rng(4100);
  const auto g = GeometricGraph::sample(128, 2.0, graph_rng);
  Rng field_rng(4101);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = 1e-2;
  sim::CheckpointPolicy policy;
  policy.every_ticks = 256;
  std::string payload;
  policy.persist = [&](std::string_view bytes, std::uint64_t) {
    if (payload.empty()) payload.assign(bytes.data(), bytes.size());
  };
  Rng rng(4102);
  (void)core::run_protocol_trial(ProtocolKind::kBoydPairwise, g, x0, rng,
                                 options, policy, {});
  ASSERT_FALSE(payload.empty());

  // CheckError or ArgumentError depending on which identity field trips
  // first; both are logic errors, never a silent continue.
  const auto rejects = [&](ProtocolKind kind, const GeometricGraph& graph,
                           const std::vector<double>& field,
                           const std::string& bytes) {
    Rng other(4102);
    EXPECT_THROW((void)core::run_protocol_trial(kind, graph, field, other,
                                                options,
                                                sim::CheckpointPolicy{}, bytes),
                 std::logic_error)
        << core::protocol_kind_name(kind);
  };
  rejects(ProtocolKind::kDimakisGeographic, g, x0, payload);

  // The round loop writes the same layout, and the same checks guard it.
  std::string multi_payload;
  sim::CheckpointPolicy every_round;
  every_round.every_ticks = 1;
  every_round.persist = [&](std::string_view bytes, std::uint64_t) {
    if (multi_payload.empty()) multi_payload.assign(bytes);
  };
  Rng multi_rng(4102);
  (void)core::run_protocol_trial(ProtocolKind::kAffineMultilevel, g, x0,
                                 multi_rng, options, every_round, {});
  ASSERT_FALSE(multi_payload.empty());
  rejects(ProtocolKind::kBoydPairwise, g, x0, multi_payload);
  rejects(ProtocolKind::kAffineMultilevel, g, x0, payload);

  Rng bigger_rng(4103);
  const auto bigger = GeometricGraph::sample(192, 2.0, bigger_rng);
  auto bigger_x0 = sim::gaussian_field(bigger.node_count(), field_rng);
  sim::center_and_normalize(bigger_x0);
  rejects(ProtocolKind::kAffineMultilevel, bigger, bigger_x0, multi_payload);
}

/// Runs `kind` on a 256-node deployment with a wall cadence so short that
/// every poll of the clock finds a snapshot due, and returns the ticks (or
/// top rounds) of every snapshot.  Resuming from the first snapshot must
/// finish bit-identically.
std::vector<std::uint64_t> wall_cadence_snapshots(ProtocolKind kind,
                                                  double eps) {
  Rng graph_rng(4300);
  const auto g = GeometricGraph::sample(256, 2.0, graph_rng);
  Rng field_rng(4301);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = eps;
  sim::CheckpointPolicy policy;
  policy.every_seconds = 1e-9;
  std::string first_payload;
  std::vector<std::uint64_t> steps;
  policy.persist = [&](std::string_view payload, std::uint64_t ticks) {
    if (first_payload.empty()) first_payload.assign(payload);
    steps.push_back(ticks);
  };
  Rng rng_a(4302);
  const auto reference =
      core::run_protocol_trial(kind, g, x0, rng_a, options, policy, {});
  EXPECT_FALSE(steps.empty()) << "the wall cadence never fired";
  if (steps.empty()) return steps;

  Rng rng_b(4302);
  const auto resumed = core::run_protocol_trial(
      kind, g, x0, rng_b, options, sim::CheckpointPolicy{}, first_payload);
  EXPECT_TRUE(outcomes_identical(reference, resumed))
      << core::protocol_kind_name(kind) << ": resumed from step "
      << steps.front();
  return steps;
}

TEST(FamilySnapshotContract, WallCadencePollsTheTickLoopEvery8192Ticks) {
  const auto ticks = wall_cadence_snapshots(ProtocolKind::kBoydPairwise, 1e-6);
  ASSERT_GE(ticks.size(), 2u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], 8192u * (i + 1));
  }
}

TEST(FamilySnapshotContract, WallCadencePollsTheRoundLoopEveryTopRound) {
  const auto rounds =
      wall_cadence_snapshots(ProtocolKind::kAffineMultilevel, 1e-3);
  ASSERT_GE(rounds.size(), 2u);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], i + 1);
  }
}

TEST(FamilySnapshotContract, ThrowingPersistPropagates) {
  // A failed snapshot write surfaces as the persist callback's IoError,
  // and a later trial runs normally.
  Rng graph_rng(4200);
  const auto g = GeometricGraph::sample(256, 2.0, graph_rng);
  Rng field_rng(4201);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = 1e-2;
  sim::CheckpointPolicy policy;
  policy.every_ticks = 64;
  policy.persist = [](std::string_view, std::uint64_t) {
    throw IoError("snapshot device full");
  };
  Rng rng(4202);
  EXPECT_THROW((void)core::run_protocol_trial(ProtocolKind::kDimakisGeographic,
                                              g, x0, rng, options, policy, {}),
               IoError);

  Rng again(4202);
  const auto outcome =
      core::run_protocol_trial(ProtocolKind::kDimakisGeographic, g, x0, again,
                               options, sim::CheckpointPolicy{}, {});
  EXPECT_TRUE(outcome.converged);
}

// -------------------------------------------------------- SnapshotStore ----

TEST(SnapshotStore, SaveLoadRemoveRoundTrip) {
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_roundtrip"), "tiny", 7);
  EXPECT_FALSE(store.try_load(3, 1, 42).has_value());  // absent: fresh run

  store.save(3, 1, 42, 9000, "trajectory bytes");
  const auto loaded = store.try_load(3, 1, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ticks, 9000u);
  EXPECT_EQ(loaded->payload, "trajectory bytes");

  // Overwrite-by-flip: a newer snapshot replaces the older atomically.
  store.save(3, 1, 42, 18000, "later bytes");
  EXPECT_EQ(store.try_load(3, 1, 42)->payload, "later bytes");

  store.remove(3, 1);
  EXPECT_FALSE(store.try_load(3, 1, 42).has_value());
  store.remove(3, 1);  // idempotent
}

TEST(SnapshotStore, TruncationAtEveryByteRestartsInsteadOfPoisoning) {
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_truncate"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload under test");
  const std::string path = store.path_for(0, 0);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(path, std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(store.try_load(0, 0, 11).has_value())
        << "prefix length " << len << " restored from a torn file";
  }
  spit(path, bytes);  // the intact file still loads after all that
  EXPECT_TRUE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, PayloadCorruptionFailsTheChecksumAndRestarts) {
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_corrupt"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload under test");
  const std::string path = store.path_for(0, 0);
  std::string bytes = slurp(path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside the payload bytes
  spit(path, bytes);
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, IdentityMismatchThrowsInsteadOfRestoring) {
  const std::string dir = fresh_temp_dir("ggsnap_identity");
  const exp::SnapshotStore store(dir, "tiny", 7);
  store.save(2, 3, 99, 500, "payload");

  // Wrong replicate seed for the same slot: a different seed stream means
  // a different trajectory — restoring would silently poison the sweep.
  EXPECT_THROW((void)store.try_load(2, 3, 100), ArgumentError);

  // Same directory opened for a different scenario or master seed.
  const exp::SnapshotStore other_scenario(dir, "other", 7);
  EXPECT_THROW((void)other_scenario.try_load(2, 3, 99), ArgumentError);
  const exp::SnapshotStore other_master(dir, "tiny", 8);
  EXPECT_THROW((void)other_master.try_load(2, 3, 99), ArgumentError);
}

TEST(SnapshotStore, SchemaMismatchThrowsLoudly) {
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_schema"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload");
  const std::string path = store.path_for(0, 0);

  // Forge the same container with a bumped schema word (field order per
  // snapshot_store.cpp: schema, scenario, master_seed, cell, replicate,
  // seed, ticks, checksum, payload).
  SnapshotWriter w;
  w.u32(exp::kSchemaVersion + 1);
  w.str("tiny");
  w.u64(7);
  w.u64(0);
  w.u32(0);
  w.u64(11);
  w.u64(500);
  w.u64(fnv1a64("payload"));
  w.str("payload");
  spit(path, "GGSNAP1\n" + w.bytes());
  EXPECT_THROW((void)store.try_load(0, 0, 11), ArgumentError);
}

TEST(SnapshotStore, UnreadableSlotThrowsIoError) {
  // A directory at the slot path opens but cannot be read.  That is an
  // environment failure, not crash debris: it must not restart the
  // replicate silently, nor escape as a stream exception.
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_unreadable"), "tiny",
                                 7);
  std::filesystem::create_directory(store.path_for(0, 0));
  EXPECT_THROW((void)store.try_load(0, 0, 11), IoError);
}

TEST(SnapshotStore, ForeignFileWithBadMagicRestarts) {
  const exp::SnapshotStore store(fresh_temp_dir("ggsnap_magic"), "tiny", 7);
  spit(store.path_for(0, 0), "not a snapshot at all");
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, SweepsOnlyStaleTempsAndCountsOrphans) {
  const std::string dir = fresh_temp_dir("ggsnap_stale_tmp");
  const std::string slot = exp::SnapshotStore(dir, "tiny", 7).path_for(0, 0);
  // Two writers died mid-save of one slot: one long ago, one just now
  // (possibly still alive in another fleet worker).
  const std::string old_tmp = slot + ".tmp.111";
  const std::string fresh_tmp = slot + ".tmp.222";
  spit(old_tmp, "torn");
  spit(fresh_tmp, "in flight");
  std::filesystem::last_write_time(
      old_tmp, std::filesystem::file_time_type::clock::now() -
                   std::chrono::hours(1));

  obs::reset();
  obs::set_enabled(true);
  const exp::SnapshotStore store(dir, "tiny", 7);  // default 300 s gate
  EXPECT_FALSE(std::filesystem::exists(old_tmp));
  EXPECT_TRUE(std::filesystem::exists(fresh_tmp));
  // No committed snapshot beside the orphan: the replicate restarts.
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
  obs::set_enabled(false);
#if !defined(GEOGOSSIP_OBS_DISABLE)
  const auto counters = obs::snapshot().counters;
  EXPECT_EQ(counters.at("snapshot.stale_tmp_swept"), 1u);
  EXPECT_EQ(counters.at("snapshot.orphan_tmp"), 1u);
#endif
  obs::reset();

  // Once the slot's record is durable, remove() clears its temps too.
  store.remove(0, 0);
  EXPECT_FALSE(std::filesystem::exists(fresh_tmp));
}

// ------------------------------------------------------- JSONL schema ----

TEST(JsonlSchema, ReplicateRecordsCarryTheSchemaVersion) {
  std::ostringstream out;
  exp::JsonLinesSink sink(out);
  exp::Cell cell;
  cell.n = 8;
  exp::ReplicateResult result;
  result.seed = 3;
  sink.write_replicate("tiny", 7, cell, 0, 0, result);
  EXPECT_NE(out.str().find("\"schema\":" +
                           std::to_string(exp::kSchemaVersion)),
            std::string::npos)
      << out.str();
}

TEST(JsonlSchema, MismatchedStampIsRejectedLoudly) {
  std::ostringstream out;
  exp::JsonLinesSink sink(out);
  exp::Cell cell;
  cell.n = 8;
  exp::ReplicateResult result;
  result.seed = 3;
  sink.write_replicate("tiny", 7, cell, 0, 0, result);

  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion);
  std::string line = out.str();
  const auto at = line.find(stamp);
  ASSERT_NE(at, std::string::npos);

  // A record from a FUTURE schema must throw, not be skipped as noise —
  // silently dropping it would re-run (and re-append) that replicate.
  std::string future = line;
  future.replace(at, stamp.size(), "\"schema\":999");
  exp::Checkpoint reject("tiny", 7);
  std::istringstream future_in(future);
  EXPECT_THROW(reject.load(future_in), ArgumentError);

  // A legacy record with NO stamp predates the field and still loads.
  std::string legacy = line;
  legacy.erase(at - 1, stamp.size() + 1);  // also drop the leading comma
  exp::Checkpoint accept("tiny", 7);
  std::istringstream legacy_in(legacy);
  accept.load(legacy_in);
  EXPECT_EQ(accept.size(), 1u);
  EXPECT_EQ(accept.stats().malformed, 0u);
}

// ------------------------------------------------- Runner end-to-end ----

exp::Scenario snapshot_scenario() {
  exp::Scenario scenario;
  scenario.name = "snap-e2e";
  scenario.replicates = 2;
  scenario.master_seed = 13;
  for (const std::size_t n : {96, 128}) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.options.eps = 1e-2;
  }
  return scenario;
}

std::size_t snapshot_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ggsnap") ++count;
  }
  return count;
}

bool summaries_identical(const exp::SweepSummary& a,
                         const exp::SweepSummary& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    if (x.converged != y.converged || x.median_tx != y.median_tx ||
        x.q25_tx != y.q25_tx || x.q75_tx != y.q75_tx ||
        x.mean_control_share != y.mean_control_share) {
      return false;
    }
  }
  return true;
}

TEST(RunnerSnapshots, CleanRunMatchesUncheckpointedAndLeavesNoFiles) {
  const auto scenario = snapshot_scenario();
  exp::RunnerOptions plain;
  plain.threads = 2;
  const auto reference = exp::Runner(plain).run(scenario);

  const std::string dir = fresh_temp_dir("ggsnap_runner_clean");
  exp::RunnerOptions snapshotting = plain;
  snapshotting.snapshot_dir = dir;
  snapshotting.snapshot_every_ticks = 300;
  const auto checked = exp::Runner(snapshotting).run(scenario);

  // Snapshots are pure reads: enabling them cannot change results — and a
  // completed sweep cleans up every slot file.
  EXPECT_TRUE(summaries_identical(reference, checked));
  EXPECT_EQ(snapshot_files(dir), 0u);
}

TEST(RunnerSnapshots, CrashAfterPersistResumesBitIdentically) {
  const auto scenario = snapshot_scenario();
  exp::RunnerOptions plain;
  plain.threads = 1;
  const auto reference = exp::Runner(plain).run(scenario);

  // "Crash" mid-sweep: the progress sink throws on the first completed
  // replicate.  Its snapshot is only removed AFTER progress succeeds, so
  // the slot file survives for the re-run (the documented crash window).
  const std::string dir = fresh_temp_dir("ggsnap_runner_crash");
  exp::RunnerOptions crashing = plain;
  crashing.snapshot_dir = dir;
  crashing.snapshot_every_ticks = 300;
  bool threw = false;
  crashing.progress = [&](const exp::Cell&, std::size_t, std::uint32_t,
                          const exp::ReplicateResult&) {
    if (!threw) {
      threw = true;
      throw IoError("simulated sink failure");
    }
  };
  EXPECT_THROW((void)exp::Runner(crashing).run(scenario), IoError);
  ASSERT_GE(snapshot_files(dir), 1u)
      << "the interrupted replicate left no snapshot to resume from";

  // Re-run with the same flags: the surviving slot restores mid-replicate
  // and the aggregates come out bit-identical to the uninterrupted run.
  exp::RunnerOptions resuming = plain;
  resuming.snapshot_dir = dir;
  resuming.snapshot_every_ticks = 300;
  const auto resumed = exp::Runner(resuming).run(scenario);
  EXPECT_TRUE(summaries_identical(reference, resumed));
  EXPECT_EQ(snapshot_files(dir), 0u);
}

TEST(RunnerSnapshots, FailedCommitFailsTheSweep) {
  // A checkpoint that cannot be written is an environment failure, on
  // whichever thread commits it.  A directory at each slot's temp path
  // makes every retry's fopen fail.  A save still queued when its
  // replicate's record is written is dropped, and these replicates take
  // well under a millisecond, so a slow record write gives the commits
  // time to start.
  const auto scenario = snapshot_scenario();
  for (const unsigned threads : {1u, 4u}) {
    const std::string dir = fresh_temp_dir("ggsnap_runner_failed_commit");
    const exp::SnapshotStore store(dir, scenario.name, scenario.master_seed);
    for (std::size_t cell = 0; cell < scenario.cells.size(); ++cell) {
      for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
        std::filesystem::create_directory(store.path_for(cell, r) + ".tmp." +
                                          std::to_string(::getpid()));
      }
    }
    exp::RunnerOptions options;
    options.threads = threads;
    options.snapshot_dir = dir;
    options.snapshot_every_ticks = 300;
    options.progress = [](const exp::Cell&, std::size_t, std::uint32_t,
                          const exp::ReplicateResult&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    EXPECT_THROW((void)exp::Runner(options).run(scenario), IoError)
        << threads << " thread(s)";
  }
}

TEST(RunnerSnapshots, SupersededAndDroppedSavesLeaveNoFiles) {
  // A save every tick outpaces the commits: a newer payload replaces the
  // slot's queued one, and a replicate that finishes drops its queued
  // save.  Neither may change results or leave a file behind.
  const auto scenario = snapshot_scenario();
  exp::RunnerOptions plain;
  plain.threads = 4;
  const auto reference = exp::Runner(plain).run(scenario);

  const std::string dir = fresh_temp_dir("ggsnap_runner_every_tick");
  exp::RunnerOptions snapshotting = plain;
  snapshotting.snapshot_dir = dir;
  snapshotting.snapshot_every_ticks = 1;
  obs::reset();
  obs::set_enabled(true);
  const auto checked = exp::Runner(snapshotting).run(scenario);
  obs::set_enabled(false);
  EXPECT_TRUE(summaries_identical(reference, checked));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
#if !defined(GEOGOSSIP_OBS_DISABLE)
  // Fewer commits than saves: queued saves were replaced or dropped.
  std::uint64_t commits = 0;
  for (const obs::Event& e : obs::snapshot().events) {
    if (e.name != nullptr && std::string_view(e.name) == "snapshot_write") {
      ++commits;
    }
  }
  std::uint64_t saves = 0;
  sim::CheckpointPolicy counting;
  counting.every_ticks = 1;
  counting.persist = [&](std::string_view, std::uint64_t) { ++saves; };
  for (std::size_t c = 0; c < scenario.cells.size(); ++c) {
    for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
      (void)exp::run_replicate(
          scenario.cells[c], exp::replicate_seed(scenario.master_seed, c, r),
          counting);
    }
  }
  EXPECT_LT(commits, saves);
#endif
  obs::reset();
}

}  // namespace
}  // namespace geogossip
