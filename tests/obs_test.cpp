// Telemetry subsystem (src/obs/) contract tests.
//
// The promises under test are the ones sweeps rely on: enabling telemetry
// never changes results (byte-identical sink output), a full event buffer
// drops instead of blocking or growing, counter totals are bit-identical
// at any thread count, a heartbeat file is always one whole beat, and the
// spans the Runner/graph record nest the way the trace exporter and
// tools/trace_summary.py expect.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "obs/heartbeat.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "test_support.hpp"

namespace gg = geogossip;

namespace {

/// Restores the global telemetry state on scope exit, so a failing
/// EXPECT cannot leak an enabled flag or shrunken ring into later tests.
struct ObsGuard {
  ObsGuard() { gg::obs::reset(); }
  ~ObsGuard() {
    gg::obs::set_enabled(false);
    gg::obs::set_ring_capacity(std::size_t{1} << 16);
    gg::obs::reset();
  }
};

/// Two protocol cells small enough that 3 replicates run in well under a
/// second, yet exercising both the routing path (geographic) and the
/// pure-neighbour path (pairwise).
gg::exp::Scenario tiny_scenario() {
  gg::exp::Scenario scenario;
  scenario.name = "obs-tiny";
  scenario.description = "telemetry contract fixture";
  scenario.replicates = 3;
  scenario.master_seed = 7;
  scenario.add("geographic", gg::core::ProtocolKind::kDimakisGeographic, 64);
  scenario.add("pairwise", gg::core::ProtocolKind::kBoydPairwise, 64);
  return scenario;
}

struct SinkStrings {
  std::string csv;
  std::string json;
};

SinkStrings run_to_strings(unsigned threads) {
  gg::exp::RunnerOptions options;
  options.threads = threads;
  const auto summary = gg::exp::Runner(options).run(tiny_scenario());
  std::ostringstream csv;
  std::ostringstream json;
  gg::exp::CsvSink(csv).write(summary);
  gg::exp::JsonLinesSink(json).write(summary);
  return {csv.str(), json.str()};
}

}  // namespace

#if !defined(GEOGOSSIP_OBS_DISABLE)

TEST(Telemetry, RingOverflowDropsAndCountsInsteadOfBlocking) {
  ObsGuard guard;
  gg::obs::set_ring_capacity(8);
  gg::obs::set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    gg::obs::Span span("overflow_probe", "i", i);
  }
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();
  EXPECT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped_events, 12u);
}

TEST(Telemetry, SpansRecordNamesArgsAndOrderedTimestamps) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  {
    gg::obs::Span outer("outer", "a", 1);
    gg::obs::Span inner("inner", "b", 2, "c", 3);
  }
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(snap.events[0].name, "outer");
  EXPECT_STREQ(snap.events[1].name, "inner");
  EXPECT_STREQ(snap.events[1].key_a, "b");
  EXPECT_EQ(snap.events[1].arg_a, 2);
  EXPECT_EQ(snap.events[1].arg_b, 3);
  // Inner's lifetime is contained in outer's (same thread, RAII order).
  EXPECT_LE(snap.events[0].start_ns, snap.events[1].start_ns);
  EXPECT_GE(snap.events[0].end_ns, snap.events[1].end_ns);
}

TEST(Telemetry, CounterTotalsBitIdenticalAcrossThreadCounts) {
  ObsGuard guard;
  const auto counters_at = [](unsigned threads,
                              const gg::exp::Scenario& scenario) {
    gg::obs::reset();
    gg::obs::set_enabled(true);
    gg::exp::RunnerOptions options;
    options.threads = threads;
    gg::exp::Runner(options).run(scenario);
    gg::obs::set_enabled(false);
    return gg::obs::snapshot().counters;
  };
  const auto counters_1 = counters_at(1, tiny_scenario());
  const auto counters_4 = counters_at(4, tiny_scenario());

  // Exact integer merge: not approximately equal — EQUAL, key for key.
  EXPECT_EQ(counters_1, counters_4);
  EXPECT_GT(counters_1.at("routing.routes"), 0u);
  EXPECT_GT(counters_1.at("routing.hops"), 0u);
  EXPECT_EQ(counters_1.at("trial.count"), 6u);

  // One Dimakis replicate: at 4 threads three workers stay idle, and the
  // counters must still equal the single-threaded run's.
  gg::exp::Scenario lone = tiny_scenario();
  lone.name = "obs-lone-dimakis";
  lone.replicates = 1;
  lone.cells.resize(1);
  lone.cells[0].n = 512;
  EXPECT_EQ(counters_at(1, lone), counters_at(4, lone));
}

TEST(Telemetry, RunnerSpansNestForTheTraceExporter) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  gg::exp::RunnerOptions options;
  options.threads = 1;
  gg::exp::Runner(options).run(tiny_scenario());
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();

  const gg::obs::Event* replicate = nullptr;
  for (const auto& event : snap.events) {
    if (std::string_view(event.name) == "replicate") {
      replicate = &event;
      break;
    }
  }
  ASSERT_NE(replicate, nullptr);
  ASSERT_STREQ(replicate->key_a, "cell");

  // graph_build and routing_mirror must appear nested inside SOME
  // replicate span on the same lane — the structure trace_summary.py
  // --validate asserts on real sweeps.
  for (const char* phase : {"graph_build", "routing_mirror"}) {
    bool nested = false;
    for (const auto& event : snap.events) {
      if (std::string_view(event.name) != phase) continue;
      for (const auto& parent : snap.events) {
        if (std::string_view(parent.name) != "replicate") continue;
        if (parent.tid == event.tid &&
            parent.start_ns <= event.start_ns &&
            event.end_ns <= parent.end_ns) {
          nested = true;
          break;
        }
      }
      if (nested) break;
    }
    EXPECT_TRUE(nested) << phase << " span not nested in a replicate span";
  }

  // Cell envelopes live on the synthetic lane and enclose their
  // replicates' spans.
  bool cell_encloses = false;
  for (const auto& event : snap.events) {
    if (std::string_view(event.name) != "cell") continue;
    EXPECT_EQ(event.tid, gg::obs::kSyntheticTid);
    if (event.key_a != nullptr && event.arg_a == replicate->arg_a &&
        event.start_ns <= replicate->start_ns &&
        replicate->end_ns <= event.end_ns) {
      cell_encloses = true;
    }
  }
  EXPECT_TRUE(cell_encloses);

  // The exporter renders a snapshot of this shape without throwing.
  std::ostringstream trace;
  gg::obs::write_chrome_trace(trace, snap, "obs_test");
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"replicate\""), std::string::npos);
}

TEST(Telemetry, DisabledRecordsNothing) {
  ObsGuard guard;
  ASSERT_FALSE(gg::obs::enabled());
  {
    gg::obs::Span span("dark", "x", 1);
    static const auto c = gg::obs::counter("obs_test.dark_counter");
    gg::obs::add(c, 41);
  }
  const auto snap = gg::obs::snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped_events, 0u);
  // Registered names still appear — with zero totals.
  EXPECT_EQ(snap.counters.at("obs_test.dark_counter"), 0u);
}

#endif  // !GEOGOSSIP_OBS_DISABLE

TEST(Telemetry, OnVsOffSweepOutputByteIdentical) {
  ObsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    gg::obs::set_enabled(false);
    const auto dark = run_to_strings(threads);
    gg::obs::set_enabled(true);
    const auto lit = run_to_strings(threads);
    gg::obs::set_enabled(false);
    ASSERT_FALSE(dark.csv.empty());
    EXPECT_EQ(dark.csv, lit.csv) << "threads=" << threads;
    EXPECT_EQ(dark.json, lit.json) << "threads=" << threads;
  }
}

TEST(Telemetry, MaxRssReportsAndRunnerSurfacesIt) {
  EXPECT_GT(gg::obs::max_rss_kb(), 0u);
  gg::exp::RunnerOptions options;
  options.threads = 1;
  const auto summary = gg::exp::Runner(options).run(tiny_scenario());
  EXPECT_GT(summary.peak_rss_kb, 0u);
  std::ostringstream out;
  gg::exp::print_summary(out, summary);
  EXPECT_NE(out.str().find("peak_rss_kb="), std::string::npos);
}

namespace {

/// The heartbeat file's one beat, parsed; fails the test unless the file
/// is exactly one newline-terminated line.  A torn file throws.
gg::JsonValue read_beat(const std::string& path) {
  const std::string text = gg::slurp(path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  EXPECT_TRUE(text.ends_with('\n')) << text;
  return gg::parse_json(text);
}

/// A beat field as a number; -2 flags a missing key.
double beat_field(const gg::JsonValue& beat, std::string_view key) {
  const gg::JsonValue* value = beat.get(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? -2.0 : value->number;
}

}  // namespace

TEST(Heartbeat, FileHoldsOnlyTheLatestBeat) {
  const std::string dir = gg::fresh_temp_dir("obs_heartbeat_latest");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/hb.jsonl";

  gg::obs::Heartbeat::Options options;
  options.path = path;
  options.interval_seconds = 0.01;
  options.scenario = "obs-tiny";
  options.total_replicates = 5;
  gg::obs::Heartbeat heartbeat(options);
  heartbeat.add_completed(2);
  heartbeat.note_start(1, 0);
  heartbeat.note_done();
  // Wait for a timer beat (seq 1), so the final beat is at least seq 2.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (beat_field(read_beat(path), "seq") < 1.0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no timer beat";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  heartbeat.stop();

  const gg::JsonValue beat = read_beat(path);
  ASSERT_NE(beat.get("record"), nullptr);
  EXPECT_EQ(beat.get("record")->text, "heartbeat");
  ASSERT_NE(beat.get("scenario"), nullptr);
  EXPECT_EQ(beat.get("scenario")->text, "obs-tiny");
  EXPECT_GE(beat_field(beat, "seq"), 2.0);
  EXPECT_EQ(beat_field(beat, "completed"), 3.0);  // 2 re-ingested + 1 done
  EXPECT_EQ(beat_field(beat, "total"), 5.0);
  EXPECT_EQ(beat_field(beat, "cell"), 1.0);
  EXPECT_EQ(beat_field(beat, "replicate"), 0.0);
  for (const char* key :
       {"shard_index", "shard_count", "rss_kb", "flush_unix_ms"}) {
    EXPECT_GE(beat_field(beat, key), 0.0) << key;
  }
  // Committed via rename: no temp sibling remains.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
}

// The Runner's pool workers feed the heartbeat's timer thread; the CI
// tsan job runs this test to check that hand-off.
TEST(Heartbeat, AFourThreadSweepEndsOnOneCompleteBeat) {
  const std::string dir = gg::fresh_temp_dir("obs_heartbeat_sweep");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/hb.jsonl";
  const gg::exp::Scenario scenario = tiny_scenario();
  const std::uint64_t total = scenario.cells.size() * scenario.replicates;

  gg::obs::Heartbeat::Options hb;
  hb.path = path;
  hb.interval_seconds = 0.001;
  hb.scenario = scenario.name;
  hb.total_replicates = total;
  gg::obs::Heartbeat heartbeat(hb);
  gg::exp::RunnerOptions options;
  options.threads = 4;
  options.heartbeat = &heartbeat;
  const auto summary = gg::exp::Runner(options).run(scenario);
  heartbeat.stop();

  EXPECT_EQ(summary.executed_replicates, total);
  const gg::JsonValue beat = read_beat(path);
  EXPECT_EQ(beat_field(beat, "completed"), static_cast<double>(total));
  EXPECT_EQ(beat_field(beat, "total"), static_cast<double>(total));
}

TEST(Heartbeat, RejectsEmptyPathAndNonPositiveInterval) {
  gg::obs::Heartbeat::Options no_path;
  no_path.interval_seconds = 1.0;
  EXPECT_THROW(gg::obs::Heartbeat{no_path}, gg::ArgumentError);

  gg::obs::Heartbeat::Options bad_interval;
  bad_interval.path =
      (std::filesystem::path(::testing::TempDir()) / "hb.jsonl").string();
  for (const double interval :
       {0.0, 1e10, std::numeric_limits<double>::infinity()}) {
    bad_interval.interval_seconds = interval;
    EXPECT_THROW(gg::obs::Heartbeat{bad_interval}, gg::ArgumentError)
        << interval;
  }
}

TEST(TraceExport, EscapesNamesAndCarriesCountersAndDrops) {
  gg::obs::Snapshot snap;
  gg::obs::Event event;
  event.name = "needs\"escape";
  event.key_a = "n";
  event.arg_a = 9;
  event.start_ns = 1000;
  event.end_ns = 3500;
  event.tid = 2;
  snap.events.push_back(event);
  snap.dropped_events = 4;
  snap.counters.emplace("routing.hops", 123);

  std::ostringstream out;
  gg::obs::write_chrome_trace(out, snap, "unit");
  const std::string trace = out.str();
  EXPECT_NE(trace.find("needs\\\"escape"), std::string::npos);
  EXPECT_NE(trace.find("\"droppedEvents\":4"), std::string::npos);
  EXPECT_NE(trace.find("\"routing.hops\":123"), std::string::npos);
  // 2500 ns => 2.500 us, normalized to start at ts 0.
  EXPECT_NE(trace.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":2.500"), std::string::npos);
}
