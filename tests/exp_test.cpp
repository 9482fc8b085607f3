// Tests for the experiment-orchestration subsystem (src/exp/): the thread
// pool, the deterministic replicate seed-stream, the parallel runner's
// aggregation, the scenario registry, the sinks, and SweepCli's flags and
// merge modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/probes.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "exp/sweep_cli.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "test_support.hpp"

namespace geogossip::exp {
namespace {

// ----------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 257;  // deliberately not a worker multiple
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run(16,
               [&](std::size_t i) {
                 if (i == 7) throw std::runtime_error("boom");
                 completed.fetch_add(1);
               }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the batch still drains
}

TEST(ThreadPool, SingleWorkerHasTheSameExceptionContract) {
  ThreadPool pool(1);
  int completed = 0;
  EXPECT_THROW(
      pool.run(16,
               [&](std::size_t i) {
                 if (i == 7) throw std::runtime_error("boom");
                 ++completed;
               }),
      std::runtime_error);
  EXPECT_EQ(completed, 15);  // inline path drains the batch too
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

// ----------------------------------------------------------- seed-stream ----

TEST(SeedStream, IsAPureFunctionOfItsIndices) {
  EXPECT_EQ(replicate_seed(1, 0, 0), replicate_seed(1, 0, 0));
  EXPECT_NE(replicate_seed(1, 0, 0), replicate_seed(1, 0, 1));
  EXPECT_NE(replicate_seed(1, 0, 0), replicate_seed(1, 1, 0));
  EXPECT_NE(replicate_seed(1, 0, 0), replicate_seed(2, 0, 0));
}

TEST(SeedStream, NearbyIndicesDecorrelate) {
  std::set<std::uint64_t> seeds;
  for (std::size_t cell = 0; cell < 16; ++cell) {
    for (std::uint32_t rep = 0; rep < 16; ++rep) {
      seeds.insert(replicate_seed(42, cell, rep));
    }
  }
  EXPECT_EQ(seeds.size(), 16u * 16u);
}

// -------------------------------------------------------------- scenario ----

Scenario tiny_scenario(std::uint32_t replicates) {
  Scenario scenario;
  scenario.name = "tiny";
  scenario.replicates = replicates;
  scenario.master_seed = 7;
  for (const std::size_t n : {64, 96, 128}) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.options.eps = 1e-2;
  }
  auto& dimakis = scenario.add(core::ProtocolKind::kDimakisGeographic, 64);
  dimakis.options.eps = 1e-2;
  return scenario;
}

TEST(Scenario, AddLabelsCellsWithKindName) {
  const auto scenario = tiny_scenario(2);
  EXPECT_EQ(scenario.cells[0].label, "boyd");
  EXPECT_EQ(scenario.cells[3].label, "dimakis");
}

TEST(Scenario, AddRejectsDeploymentsBelowTwoNodes) {
  // A builder's bad size fails where the cell is added, before a Runner
  // starts, and the message names the size.
  Scenario scenario;
  try {
    scenario.add(core::ProtocolKind::kBoydPairwise, 1);
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("n = 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(scenario.add("empty", core::ProtocolKind::kBoydPairwise, 0),
               ArgumentError);
  EXPECT_TRUE(scenario.cells.empty());
  EXPECT_THROW(make_e2_tail(1, {0.5}, 1, 1), ArgumentError);
  EXPECT_NO_THROW(scenario.add(core::ProtocolKind::kBoydPairwise, 2));
}

TEST(ScenarioRegistry, BuiltinsRegisterAndUnknownNamesThrow) {
  register_builtin_scenarios();
  auto& registry = ScenarioRegistry::instance();
  EXPECT_TRUE(registry.contains("e5-quick"));
  const auto scenario = registry.make("e5-quick");
  EXPECT_FALSE(scenario.cells.empty());
  EXPECT_THROW(registry.make("no-such-scenario"), ArgumentError);
}

TEST(ScenarioRegistry, EveryExperimentHasAConstructibleQuickScenario) {
  register_builtin_scenarios();
  auto& registry = ScenarioRegistry::instance();
  const auto names = registry.names();
  for (int figure = 1; figure <= 11; ++figure) {
    // Incremental += rather than one operator+ chain: GCC 12's -Wrestrict
    // fires a false positive (PR105329) on the chained form under -Werror.
    std::string prefix = "e";
    prefix += std::to_string(figure);
    prefix += '-';
    bool found = false;
    for (const auto& name : names) {
      if (name.rfind(prefix, 0) != 0) continue;
      if (name.size() < 6 || name.substr(name.size() - 6) != "-quick") {
        continue;
      }
      found = true;
      const auto scenario = registry.make(name);
      EXPECT_FALSE(scenario.cells.empty()) << name;
      EXPECT_GE(scenario.replicates, 1u) << name;
    }
    EXPECT_TRUE(found) << "no -quick scenario registered for E" << figure;
  }
}

TEST(ScenarioRegistry, ProbeScenariosAlsoShipPaperPresets) {
  register_builtin_scenarios();
  auto& registry = ScenarioRegistry::instance();
  for (const int figure : {1, 2, 3, 4, 6, 7, 8, 9}) {
    bool found = false;
    std::string prefix = "e";  // += avoids the GCC 12 -Wrestrict FP
    prefix += std::to_string(figure);
    prefix += '-';
    for (const auto& name : registry.names()) {
      if (name.rfind(prefix, 0) == 0 && name.size() >= 6 &&
          name.substr(name.size() - 6) == "-paper") {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no -paper preset for E" << figure;
  }
}

TEST(ScenarioRegistry, XlPresetsAreRegisteredWithMemoryHints) {
  register_builtin_scenarios();
  auto& registry = ScenarioRegistry::instance();
  for (const char* name : {"e5-scaling-xl", "e6-hops-xl"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    // --list visibility is exactly names() membership (parallel_sweep
    // renders that list), so assert through the same call.
    const auto names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), std::string(name)),
              names.end());
    const auto scenario = registry.make(name);
    ASSERT_FALSE(scenario.cells.empty()) << name;
    std::size_t top_n = 0;
    for (const auto& cell : scenario.cells) {
      top_n = std::max(top_n, cell.n);
      // Every XL cell must carry a memory hint so --mem-budget can gate
      // concurrent builds, and the hint must at least cover the CSR.
      EXPECT_GT(cell.mem_hint_bytes,
                static_cast<std::uint64_t>(cell.n) * 8) << name;
    }
    EXPECT_EQ(top_n, std::size_t{1} << 20) << name;
  }
}

// ---------------------------------------------------------------- runner ----

TEST(Runner, AggregatesExpectedReplicateCountPerCell) {
  constexpr std::uint32_t kReplicates = 5;
  RunnerOptions options;
  options.threads = 2;
  options.keep_replicates = true;
  const auto summary =
      Runner(options).run(tiny_scenario(kReplicates));

  ASSERT_EQ(summary.cells.size(), 4u);
  EXPECT_EQ(summary.replicates, kReplicates);
  for (const auto& cs : summary.cells) {
    EXPECT_EQ(cs.replicates, kReplicates);
    EXPECT_EQ(cs.raw.size(), kReplicates);
    EXPECT_LE(cs.converged, kReplicates);
    EXPECT_DOUBLE_EQ(
        cs.converged_fraction,
        static_cast<double>(cs.converged) / kReplicates);
    // Tiny dense deployments at eps=1e-2 must actually average.
    EXPECT_GT(cs.converged, 0u);
    for (std::uint32_t r = 0; r < kReplicates; ++r) {
      EXPECT_EQ(cs.raw[r].seed,
                replicate_seed(summary.master_seed, cs.cell_index, r));
    }
  }
}

TEST(Runner, ThreadCountDoesNotChangeAggregates) {
  const auto scenario = tiny_scenario(4);

  RunnerOptions serial;
  serial.threads = 1;
  const auto one = Runner(serial).run(scenario);

  RunnerOptions parallel;
  parallel.threads = 4;
  const auto four = Runner(parallel).run(scenario);

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const auto& a = one.cells[i];
    const auto& b = four.cells[i];
    EXPECT_EQ(a.converged, b.converged);
    // Bit-identical, not approximately equal: the seed-stream plus
    // index-ordered aggregation make thread count irrelevant.
    EXPECT_EQ(a.median_tx, b.median_tx);
    EXPECT_EQ(a.q25_tx, b.q25_tx);
    EXPECT_EQ(a.q75_tx, b.q75_tx);
    EXPECT_EQ(a.mean_local_share, b.mean_local_share);
    EXPECT_EQ(a.mean_long_range_share, b.mean_long_range_share);
    EXPECT_EQ(a.mean_control_share, b.mean_control_share);
  }
}

TEST(Runner, SharedSeedStreamGivesPairedDraws) {
  // Two cells with the same protocol/size and the same pinned seed_stream
  // must produce bit-identical replicate outcomes (identical graph, field
  // and protocol randomness); an auto-stream cell must not.
  Scenario scenario;
  scenario.name = "paired";
  scenario.replicates = 3;
  scenario.master_seed = 21;
  for (int i = 0; i < 3; ++i) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, 64);
    cell.options.eps = 1e-2;
    if (i < 2) cell.seed_stream = 0;
  }

  RunnerOptions options;
  options.threads = 2;
  options.keep_replicates = true;
  const auto summary = Runner(options).run(scenario);
  ASSERT_EQ(summary.cells.size(), 3u);
  for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
    EXPECT_EQ(summary.cells[0].raw[r].seed, summary.cells[1].raw[r].seed);
    EXPECT_EQ(summary.cells[0].raw[r].transmissions.total(),
              summary.cells[1].raw[r].transmissions.total());
    EXPECT_NE(summary.cells[0].raw[r].seed, summary.cells[2].raw[r].seed);
  }
  EXPECT_EQ(summary.cells[0].median_tx, summary.cells[1].median_tx);
}

TEST(Runner, RunReplicateMatchesRunnerRaw) {
  // Every field the record persists (seed, sum_drift and the transmission
  // categories included) comes out of run_replicate exactly as the Runner
  // records it, in every cell.
  const auto scenario = tiny_scenario(2);
  RunnerOptions options;
  options.threads = 3;
  options.keep_replicates = true;
  const auto summary = Runner(options).run(scenario);
  ASSERT_EQ(summary.cells.size(), scenario.cells.size());
  for (std::size_t c = 0; c < scenario.cells.size(); ++c) {
    for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
      const auto direct = run_replicate(
          scenario.cells[c], replicate_seed(scenario.master_seed, c, r));
      EXPECT_TRUE(results_equal(direct, summary.cells[c].raw[r]))
          << "cell " << c << " replicate " << r;
    }
  }
}

TEST(Runner, ProgressCallbackFiresOncePerReplicate) {
  const auto scenario = tiny_scenario(3);
  std::atomic<int> calls{0};
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Cell&, std::size_t, std::uint32_t,
                         const ReplicateResult&) { calls.fetch_add(1); };
  Runner(options).run(scenario);
  EXPECT_EQ(calls.load(),
            static_cast<int>(scenario.cells.size() * scenario.replicates));
}

TEST(Runner, ProgressReportsSlotIdentity) {
  const auto scenario = tiny_scenario(2);
  std::set<std::pair<std::size_t, std::uint32_t>> slots;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Cell& cell, std::size_t cell_index,
                         std::uint32_t replicate, const ReplicateResult&) {
    EXPECT_EQ(scenario.cells[cell_index].label, cell.label);
    slots.emplace(cell_index, replicate);
  };
  Runner(options).run(scenario);
  // Every (cell, replicate) pair reported exactly once.
  EXPECT_EQ(slots.size(), scenario.cells.size() * scenario.replicates);
}

TEST(Runner, MemoryBudgetGatesSchedulingNotResults) {
  auto scenario = tiny_scenario(3);
  // Hints chosen so the budget admits at most one hinted replicate at a
  // time — including one hint LARGER than the whole budget, which must
  // degrade to run-alone rather than deadlock.
  scenario.cells[0].mem_hint_bytes = 600;
  scenario.cells[1].mem_hint_bytes = 1500;  // > budget: runs alone
  scenario.cells[2].mem_hint_bytes = 900;
  RunnerOptions ungated;
  ungated.threads = 3;
  const auto baseline = Runner(ungated).run(scenario);

  RunnerOptions gated = ungated;
  gated.memory_budget_bytes = 1000;
  const auto summary = Runner(gated).run(scenario);

  ASSERT_EQ(summary.cells.size(), baseline.cells.size());
  for (std::size_t c = 0; c < summary.cells.size(); ++c) {
    EXPECT_EQ(summary.cells[c].converged, baseline.cells[c].converged);
    EXPECT_EQ(summary.cells[c].median_tx, baseline.cells[c].median_tx);
    EXPECT_EQ(summary.cells[c].q25_tx, baseline.cells[c].q25_tx);
    EXPECT_EQ(summary.cells[c].q75_tx, baseline.cells[c].q75_tx);
  }
}

// --------------------------------------------------------------- metrics ----

/// Synthetic probe: deterministic metrics from (cell, seed) only.
Scenario metric_scenario(std::uint32_t replicates) {
  Scenario scenario;
  scenario.name = "metric-probe";
  scenario.replicates = replicates;
  scenario.master_seed = 13;
  for (const std::size_t n : {8, 16, 24}) {
    auto& cell = scenario.add("probe n=" + std::to_string(n),
                              core::ProtocolKind::kBoydPairwise, n);
    cell.probe = "synthetic";
    cell.params["scale"] = 2.0;
    cell.trial = [](const Cell& c, std::uint64_t seed) {
      ReplicateResult result;
      result.converged = true;
      result.metrics["value"] =
          c.param("scale") * static_cast<double>(seed % 97);
      result.metrics["n_copy"] = static_cast<double>(c.n);
      return result;
    };
  }
  return scenario;
}

TEST(Metrics, CellParamLookupFallsBack) {
  Cell cell;
  cell.params["x"] = 1.5;
  EXPECT_DOUBLE_EQ(cell.param("x"), 1.5);
  EXPECT_DOUBLE_EQ(cell.param("missing", -2.0), -2.0);
}

TEST(Metrics, AggregatesEveryKeyWithOrderStatistics) {
  RunnerOptions options;
  options.threads = 2;
  options.keep_replicates = true;
  const auto summary = Runner(options).run(metric_scenario(5));

  ASSERT_EQ(summary.cells.size(), 3u);
  for (const auto& cs : summary.cells) {
    ASSERT_EQ(cs.metrics.count("value"), 1u);
    ASSERT_EQ(cs.metrics.count("n_copy"), 1u);
    const auto& value = cs.metrics.at("value");
    EXPECT_EQ(value.count, 5u);
    // Recompute the aggregate from the raw replicates.
    double sum = 0.0;
    double lo = 1e300;
    double hi = -1e300;
    for (const auto& rr : cs.raw) {
      const double v = rr.metrics.at("value");
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_DOUBLE_EQ(value.mean, sum / 5.0);
    EXPECT_DOUBLE_EQ(value.min, lo);
    EXPECT_DOUBLE_EQ(value.max, hi);
    EXPECT_GE(value.median, lo);
    EXPECT_LE(value.median, hi);
    EXPECT_DOUBLE_EQ(cs.metrics.at("n_copy").mean,
                     static_cast<double>(cs.cell.n));
    EXPECT_DOUBLE_EQ(cs.metric_mean("n_copy"),
                     static_cast<double>(cs.cell.n));
    EXPECT_DOUBLE_EQ(cs.metric_mean("absent", -1.0), -1.0);
    // Probes always converge: the measurement itself is the outcome.
    EXPECT_EQ(cs.converged, 5u);
  }
}

TEST(Metrics, AggregationIsBitIdenticalAcrossThreadCounts) {
  const auto scenario = metric_scenario(4);

  RunnerOptions serial;
  serial.threads = 1;
  const auto one = Runner(serial).run(scenario);

  RunnerOptions parallel;
  parallel.threads = 4;
  const auto four = Runner(parallel).run(scenario);

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const auto& a = one.cells[i].metrics;
    const auto& b = four.cells[i].metrics;
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, ms] : a) {
      ASSERT_EQ(b.count(key), 1u) << key;
      const auto& other = b.at(key);
      EXPECT_EQ(ms.count, other.count) << key;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(ms.mean, other.mean) << key;
      EXPECT_EQ(ms.median, other.median) << key;
      EXPECT_EQ(ms.q95, other.q95) << key;
      EXPECT_EQ(ms.min, other.min) << key;
      EXPECT_EQ(ms.max, other.max) << key;
    }
  }
}

TEST(Metrics, ProbeQuickScenarioIsBitIdenticalAcrossThreadCounts) {
  // End-to-end over a real probe: E7 quick builds fast graphs only.
  register_builtin_scenarios();
  auto scenario = ScenarioRegistry::instance().make("e7-connectivity-quick");
  scenario.replicates = 3;

  RunnerOptions serial;
  serial.threads = 1;
  const auto one = Runner(serial).run(scenario);
  RunnerOptions parallel;
  parallel.threads = 4;
  const auto four = Runner(parallel).run(scenario);

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    for (const auto& [key, ms] : one.cells[i].metrics) {
      EXPECT_EQ(ms.mean, four.cells[i].metrics.at(key).mean) << key;
      EXPECT_EQ(ms.q95, four.cells[i].metrics.at(key).q95) << key;
    }
  }
}

TEST(Metrics, PairedProbeCellsShareDeployments) {
  // E9 pins rejection on/off to one seed stream per size: replicate k of
  // both cells must draw the same seed (same graph, same draw sequence).
  const auto scenario = make_e9_rejection({64}, 50, 1.2, 2, 7);
  RunnerOptions options;
  options.threads = 2;
  options.keep_replicates = true;
  const auto summary = Runner(options).run(scenario);
  ASSERT_EQ(summary.cells.size(), 2u);
  for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
    EXPECT_EQ(summary.cells[0].raw[r].seed, summary.cells[1].raw[r].seed);
  }
  // With sampling off only self-targets count as rejections, so the on
  // cell's rejection rate dominates the off cell's.
  EXPECT_GE(summary.cells[1].metric_mean("rejects_per_draw"),
            summary.cells[0].metric_mean("rejects_per_draw"));
}

TEST(Metrics, HorizonCellsExtendTheSameTrajectory) {
  // E1's horizon family shares a stream: the t=2n cell's mean norm must
  // exceed the t=10n cell's (same trajectories observed earlier), and the
  // contraction ratio must stay near or below 1.
  const auto scenario = make_e1_contraction({32}, 12, 3);
  RunnerOptions options;
  options.threads = 2;
  const auto summary = Runner(options).run(scenario);
  // 1 size x 3 alpha modes x 5 horizons.
  ASSERT_EQ(summary.cells.size(), 15u);
  const auto& first = summary.cells[0];   // paper mode, t=2n
  const auto& last = summary.cells[4];    // paper mode, t=10n
  EXPECT_EQ(first.cell.seed_stream, last.cell.seed_stream);
  EXPECT_GT(first.metric_mean("norm_sq"), last.metric_mean("norm_sq"));
  EXPECT_GT(last.metric_mean("bound"), 0.0);
}

// ----------------------------------------------------------------- sinks ----

TEST(Sinks, CsvSinkWritesHeaderOnceAndOneRowPerCell) {
  const auto scenario = tiny_scenario(2);
  RunnerOptions options;
  options.threads = 2;
  const auto summary = Runner(options).run(scenario);

  std::ostringstream out;
  CsvSink sink(out);
  sink.write(summary);
  sink.write(summary);  // appending must not repeat the header

  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1 + 2 * summary.cells.size());
  EXPECT_EQ(text.find("scenario,cell,protocol,n"), 0u);
  EXPECT_NE(text.find("tiny,boyd,boyd,64"), std::string::npos);
}

TEST(Sinks, JsonLinesSinkEmitsOneObjectPerCell) {
  const auto scenario = tiny_scenario(2);
  RunnerOptions options;
  options.threads = 2;
  const auto summary = Runner(options).run(scenario);

  std::ostringstream out;
  JsonLinesSink(out).write(summary);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, summary.cells.size());
  EXPECT_NE(text.find("\"scenario\":\"tiny\""), std::string::npos);
  EXPECT_NE(text.find("\"protocol\":\"dimakis\""), std::string::npos);
}

TEST(Sinks, CsvSinkAppendsMetricColumnsInSortedKeyOrder) {
  RunnerOptions options;
  options.threads = 2;
  const auto summary = Runner(options).run(metric_scenario(3));

  std::ostringstream out;
  CsvSink sink(out);
  sink.write(summary);
  const std::string text = out.str();
  const std::string header = text.substr(0, text.find('\n'));
  // Base columns, then param_<key>, then the five order statistics per
  // metric key, sorted by key.
  EXPECT_NE(header.find("scenario,cell,protocol,n"), std::string::npos);
  EXPECT_NE(header.find("param_scale"), std::string::npos);
  EXPECT_NE(header.find(
                "n_copy_mean,n_copy_median,n_copy_q95,n_copy_min,"
                "n_copy_max,value_mean,value_median,value_q95,value_min,"
                "value_max"),
            std::string::npos);
  // Probe cells report the probe name in the protocol column.
  EXPECT_NE(text.find("probe n=8,synthetic,8"), std::string::npos);
}

TEST(Sinks, JsonLinesSinkEmitsMetricsObject) {
  RunnerOptions options;
  options.threads = 2;
  const auto summary = Runner(options).run(metric_scenario(3));

  std::ostringstream out;
  JsonLinesSink(out).write(summary);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"protocol\":\"synthetic\""), std::string::npos);
  EXPECT_NE(text.find("\"params\":{\"scale\":2}"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(text.find("\"value\":{\"count\":3,\"mean\":"),
            std::string::npos);
  EXPECT_NE(text.find("\"q95\":"), std::string::npos);
}

TEST(Sinks, JsonLinesReplicateRecordsStreamOnePerReplicate) {
  const auto scenario = tiny_scenario(2);
  std::ostringstream out;
  JsonLinesSink sink(out);
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Cell& cell, std::size_t cell_index,
                         std::uint32_t replicate,
                         const ReplicateResult& result) {
    sink.write_replicate(scenario.name, scenario.master_seed, cell,
                         cell_index, replicate, result);
  };
  const auto summary = Runner(options).run(scenario);
  sink.write(summary);  // cell lines interleave fine after the records

  const std::string text = out.str();
  std::size_t records = 0;
  std::size_t pos = 0;
  while ((pos = text.find("{\"record\":\"replicate\"", pos)) !=
         std::string::npos) {
    ++records;
    ++pos;
  }
  EXPECT_EQ(records, scenario.cells.size() * scenario.replicates);
  // Each record carries the resume identity and the outcome.
  EXPECT_NE(text.find("\"cell_index\":"), std::string::npos);
  EXPECT_NE(text.find("\"replicate\":"), std::string::npos);
  EXPECT_NE(text.find("\"master_seed\":7"), std::string::npos);
  EXPECT_NE(text.find("\"transmissions\":"), std::string::npos);
  // The per-cell summary lines still follow.
  EXPECT_NE(text.find("\"scenario\":\"tiny\",\"cell\":\"boyd\""),
            std::string::npos);
}

// --------------------------------------------------------- resume & shard ----

/// Renders a summary through the CSV sink: byte equality here IS the
/// "bit-identical aggregates" acceptance criterion (every aggregate double
/// is printed with 17 significant digits).
std::string to_csv(const SweepSummary& summary) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.write(summary);
  return out.str();
}

/// Runs `scenario` streaming replicate records, returning (summary, text
/// of the record file).
std::pair<SweepSummary, std::string> run_streaming(
    const Scenario& scenario, unsigned threads, std::uint32_t shard_index = 0,
    std::uint32_t shard_count = 1) {
  std::ostringstream records;
  JsonLinesSink sink(records);
  RunnerOptions options;
  options.threads = threads;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.progress = [&](const Cell& cell, std::size_t cell_index,
                         std::uint32_t replicate,
                         const ReplicateResult& result) {
    sink.write_replicate(scenario.name, scenario.master_seed, cell,
                         cell_index, replicate, result);
  };
  auto summary = Runner(options).run(scenario);
  return {std::move(summary), records.str()};
}

std::shared_ptr<Checkpoint> checkpoint_from(const Scenario& scenario,
                                            const std::string& text) {
  auto checkpoint =
      std::make_shared<Checkpoint>(scenario.name, scenario.master_seed);
  std::istringstream in(text);
  checkpoint->load(in);
  return checkpoint;
}

TEST(Resume, CrashResumeRoundTripIsBitIdenticalAtTwoThreadCounts) {
  const auto scenario = tiny_scenario(4);
  for (const unsigned threads : {1u, 3u}) {
    const auto [clean, full] = run_streaming(scenario, threads);
    const std::string clean_csv = to_csv(clean);
    const std::size_t total_tasks =
        scenario.cells.size() * scenario.replicates;

    // Truncate the record file as a SIGKILL would: nothing written yet,
    // a record boundary, and mid-record (torn tail).
    const std::size_t boundary = full.find('\n', full.size() / 3) + 1;
    const std::size_t mid_record = full.find('\n', full.size() / 2) + 20;
    for (const std::size_t cut :
         {std::size_t{0}, boundary, mid_record, full.size()}) {
      const auto checkpoint =
          checkpoint_from(scenario, full.substr(0, cut));
      RunnerOptions options;
      options.threads = threads;
      options.resume_from = checkpoint;
      const auto resumed = Runner(options).run(scenario);

      EXPECT_EQ(resumed.resumed_replicates, checkpoint->size())
          << "cut=" << cut;
      EXPECT_EQ(resumed.executed_replicates,
                total_tasks - checkpoint->size())
          << "cut=" << cut;
      // The acceptance criterion: a killed-and-resumed sweep emits the
      // same CSV bytes as the uninterrupted run.
      EXPECT_EQ(to_csv(resumed), clean_csv)
          << "threads=" << threads << " cut=" << cut;
    }
  }
}

TEST(Resume, ProbeMetricsSurviveTheRoundTrip) {
  // Metric maps (the probe figures' payload) must re-ingest bit-identically
  // too, not just transmission aggregates.
  const auto scenario = metric_scenario(5);
  const auto [clean, full] = run_streaming(scenario, 2);
  const std::size_t cut = full.find('\n', full.size() / 2) + 1;
  const auto checkpoint = checkpoint_from(scenario, full.substr(0, cut));
  ASSERT_GT(checkpoint->size(), 0u);

  RunnerOptions options;
  options.threads = 2;
  options.resume_from = checkpoint;
  const auto resumed = Runner(options).run(scenario);
  EXPECT_EQ(to_csv(resumed), to_csv(clean));
  ASSERT_EQ(resumed.cells.size(), clean.cells.size());
  for (std::size_t c = 0; c < clean.cells.size(); ++c) {
    for (const auto& [key, ms] : clean.cells[c].metrics) {
      const auto& other = resumed.cells[c].metrics.at(key);
      EXPECT_EQ(ms.mean, other.mean) << key;
      EXPECT_EQ(ms.median, other.median) << key;
      EXPECT_EQ(ms.q95, other.q95) << key;
    }
  }
}

TEST(Resume, ResumedReplicatesDoNotRefireProgress) {
  const auto scenario = tiny_scenario(3);
  const auto [clean, full] = run_streaming(scenario, 2);
  const auto checkpoint = checkpoint_from(scenario, full);

  std::atomic<int> calls{0};
  RunnerOptions options;
  options.threads = 2;
  options.resume_from = checkpoint;
  options.progress = [&](const Cell&, std::size_t, std::uint32_t,
                         const ReplicateResult&) { calls.fetch_add(1); };
  const auto resumed = Runner(options).run(scenario);
  // Everything was already on disk: nothing re-runs, nothing re-streams.
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(resumed.executed_replicates, 0u);
  EXPECT_EQ(resumed.resumed_replicates,
            scenario.cells.size() * scenario.replicates);
}

TEST(Resume, RejectsCheckpointForADifferentSweep) {
  const auto scenario = tiny_scenario(2);
  RunnerOptions options;
  options.threads = 1;
  options.resume_from =
      std::make_shared<Checkpoint>("other-scenario", scenario.master_seed);
  EXPECT_THROW(Runner(options).run(scenario), ArgumentError);

  RunnerOptions wrong_seed;
  wrong_seed.threads = 1;
  wrong_seed.resume_from =
      std::make_shared<Checkpoint>(scenario.name, scenario.master_seed + 1);
  EXPECT_THROW(Runner(wrong_seed).run(scenario), ArgumentError);
}

TEST(Resume, RejectsSeedMismatchFromAnEditedScenario) {
  const auto scenario = tiny_scenario(2);
  // A record whose key exists but whose seed disagrees with the scenario's
  // seed-stream: the checkpoint belongs to a different cell layout.
  std::ostringstream out;
  JsonLinesSink sink(out);
  ReplicateResult doctored;
  doctored.seed = 999;  // never a replicate_seed(7, 0, 0)
  doctored.converged = true;
  doctored.final_error = 0.5;
  sink.write_replicate(scenario.name, scenario.master_seed,
                       scenario.cells[0], 0, 0, doctored);
  RunnerOptions options;
  options.threads = 1;
  options.resume_from = checkpoint_from(scenario, out.str());
  EXPECT_THROW(Runner(options).run(scenario), ArgumentError);
}

TEST(Resume, ThrowingProgressSinkAbortsTheRun) {
  // Satellite regression: the record write happens BEFORE a replicate is
  // marked complete, so a sink failure must surface as an exception from
  // Runner::run — never a summary that silently claims the work.
  const auto scenario = tiny_scenario(2);
  std::ostringstream out;
  JsonLinesSink sink(out);
  std::atomic<int> calls{0};
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Cell& cell, std::size_t cell_index,
                         std::uint32_t replicate,
                         const ReplicateResult& result) {
    if (calls.fetch_add(1) == 2) {
      out.setstate(std::ios::badbit);  // disk full from here on
    }
    sink.write_replicate(scenario.name, scenario.master_seed, cell,
                         cell_index, replicate, result);
  };
  EXPECT_THROW(Runner(options).run(scenario), IoError);
  // Whatever DID reach the stream before the failure is a valid partial
  // checkpoint a resume can pick up — the flushed-record invariant.  The
  // first two progress calls wrote records; the third found the stream
  // dead and threw before claiming its replicate.
  out.clear();
  const auto checkpoint = checkpoint_from(scenario, out.str());
  EXPECT_EQ(checkpoint->size(), 2u);
}

TEST(Sharding, ShardsPartitionReplicatesExactlyAndSeedsMatchTheStream) {
  const auto scenario = tiny_scenario(5);
  const std::size_t total_tasks =
      scenario.cells.size() * scenario.replicates;
  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    std::set<std::pair<std::size_t, std::uint32_t>> seen;
    for (std::uint32_t shard = 0; shard < k; ++shard) {
      RunnerOptions options;
      options.threads = 2;
      options.shard_index = shard;
      options.shard_count = k;
      options.progress = [&](const Cell& cell, std::size_t cell_index,
                             std::uint32_t replicate,
                             const ReplicateResult& result) {
        // Disjoint: no other shard may have produced this slot.
        EXPECT_TRUE(seen.emplace(cell_index, replicate).second)
            << "k=" << k << " cell=" << cell_index << " rep=" << replicate;
        // Sharding must not bend the seed-stream: every shard draws the
        // seed the unsharded run would.
        const std::size_t stream = cell.seed_stream == kAutoSeedStream
                                       ? cell_index
                                       : cell.seed_stream;
        EXPECT_EQ(result.seed, replicate_seed(scenario.master_seed, stream,
                                              replicate));
      };
      const auto summary = Runner(options).run(scenario);
      std::uint32_t owned = 0;
      for (const auto& cs : summary.cells) owned += cs.replicates;
      EXPECT_EQ(owned, summary.executed_replicates) << "k=" << k;
    }
    // Covering: the shards produced every (cell, replicate) exactly once.
    EXPECT_EQ(seen.size(), total_tasks) << "k=" << k;
  }
}

TEST(Sharding, MergedShardFilesReproduceTheUnshardedRunBitIdentically) {
  const auto scenario = tiny_scenario(5);
  for (const unsigned threads : {1u, 3u}) {
    const auto [clean, unused] = run_streaming(scenario, threads);
    const std::string clean_csv = to_csv(clean);
    const auto ks = threads == 1 ? std::vector<std::uint32_t>{2}
                                 : std::vector<std::uint32_t>{2, 3, 7};
    for (const std::uint32_t k : ks) {
      auto merged = std::make_shared<Checkpoint>(scenario.name,
                                                 scenario.master_seed);
      for (std::uint32_t shard = 0; shard < k; ++shard) {
        const auto [summary, records] =
            run_streaming(scenario, threads, shard, k);
        EXPECT_EQ(summary.shard_index, shard);
        EXPECT_EQ(summary.shard_count, k);
        std::istringstream in(records);
        merged->load(in);
      }
      ASSERT_EQ(merged->size(),
                scenario.cells.size() * scenario.replicates);

      // The merge-aggregation path: resume from the folded shard files,
      // run nothing, aggregate — the summaries a single uninterrupted
      // single-process run would emit.
      RunnerOptions options;
      options.threads = threads;
      options.resume_from = merged;
      const auto folded = Runner(options).run(scenario);
      EXPECT_EQ(folded.executed_replicates, 0u);
      EXPECT_EQ(to_csv(folded), clean_csv)
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(Sharding, RunnerValidatesShardCoordinates) {
  const auto scenario = tiny_scenario(2);
  RunnerOptions options;
  options.threads = 1;
  options.shard_count = 0;
  EXPECT_THROW(Runner(options).run(scenario), ArgumentError);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(Runner(options).run(scenario), ArgumentError);
}

TEST(Sharding, ShardResumedFromMergedFileRerunsNothing) {
  // A shard pointed at the full merged checkpoint must subtract completed
  // work from ITS OWN partition only — and end up with zero to execute.
  const auto scenario = tiny_scenario(4);
  const auto [clean, full] = run_streaming(scenario, 2);
  const auto checkpoint = checkpoint_from(scenario, full);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    RunnerOptions options;
    options.threads = 2;
    options.shard_index = shard;
    options.shard_count = 2;
    options.resume_from = checkpoint;
    const auto summary = Runner(options).run(scenario);
    EXPECT_EQ(summary.executed_replicates, 0u);
    // Only the shard's own tasks are re-ingested into its partial view.
    EXPECT_EQ(summary.resumed_replicates,
              (scenario.cells.size() * scenario.replicates + 1 - shard) / 2);
  }
}

// -------------------------------------------------------- merge modes ----

/// Runs `scenario` through SweepCli with the given harness flags; returns
/// the exit code of parse() or run(), and the run's CSV through `csv`.
int run_cli(const Scenario& scenario, std::vector<std::string> args,
            std::string* csv = nullptr) {
  SweepCli cli("exp_test", "merge-mode fixture");
  args.insert(args.begin(), "exp_test");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const auto exit = cli.parse(static_cast<int>(argv.size()), argv.data());
  if (exit) return *exit;
  std::ostringstream out;
  const int code = cli.run(scenario, out);
  if (csv != nullptr) *csv = to_csv(cli.summary());
  return code;
}

/// Writes the record files of shards 0/2 and 1/2 of `scenario` into a
/// fresh temp directory and returns their paths.
std::vector<std::string> shard_files(const Scenario& scenario,
                                     const std::string& leaf) {
  const std::filesystem::path dir = fresh_temp_dir("ggmerge_" + leaf);
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    files.push_back((dir / ("s" + std::to_string(shard))).string());
    std::ofstream(files.back(), std::ios::binary)
        << run_streaming(scenario, 1, shard, 2).second;
  }
  return files;
}

TEST(MergeOnly, CanonicalFileEqualsTheIndexOrderRecordsOfAnUninterruptedRun) {
  const auto scenario = tiny_scenario(3);
  const auto shards = shard_files(scenario, "canonical");
  std::string merged_csv;
  ASSERT_EQ(run_cli(scenario,
                    {"--threads=1", "--merge-only",
                     "--resume=" + shards[0] + "," + shards[1],
                     "--json-replicates=" + shards[0] + ".merged"},
                    &merged_csv),
            0);
  // One thread runs the tasks in index order, so its stream is canonical.
  const auto [clean, records] = run_streaming(scenario, 1);
  EXPECT_EQ(slurp(shards[0] + ".merged"), records);
  EXPECT_EQ(merged_csv, to_csv(clean));
}

TEST(MergeOnly, AMissingPairExitsOne) {
  const auto shards = shard_files(tiny_scenario(3), "missing");
  EXPECT_EQ(run_cli(tiny_scenario(3),
                    {"--merge-only", "--resume=" + shards[0],
                     "--json-replicates=" + shards[0] + ".merged"}),
            1);
  EXPECT_FALSE(std::filesystem::exists(shards[0] + ".merged"));
}

TEST(MergeOnly, ARecordOutsideTheGridExitsOne) {
  // Shards of a 3-replicate run hold replicate 2 of every cell, which
  // lies outside the 2-replicate grid.
  const auto shards = shard_files(tiny_scenario(3), "stray");
  EXPECT_EQ(run_cli(tiny_scenario(2),
                    {"--merge-only", "--resume=" + shards[0] + "," +
                                         shards[1]}),
            1);
}

TEST(MergeOnly, RewritingOneOfTheResumeFilesKeepsEveryRecord) {
  const auto scenario = tiny_scenario(3);
  const auto shards = shard_files(scenario, "in_place");
  ASSERT_EQ(run_cli(scenario, {"--merge-only",
                               "--resume=" + shards[0] + "," + shards[1],
                               "--json-replicates=" + shards[0]}),
            0);
  EXPECT_EQ(slurp(shards[0]), run_streaming(scenario, 1).second);
}

TEST(SweepCliFlags, NonFiniteOrOverflowingNumbersExitOne) {
  // NaN passes every `< 0` check, and an overflowing budget, TTL or
  // heartbeat interval would make the flag's integer conversion
  // undefined.  A thread, replicate or batch count of 2^32 or more would
  // wrap when narrowed to 32 bits (2^32 threads to 0, hardware
  // concurrency), and a negative count would wrap to a huge one.  The
  // heartbeat's directory exists, so only its interval can fail.
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "ggflags").string();
  const auto heartbeat =
      (std::filesystem::path(::testing::TempDir()) / "hb.jsonl").string();
  const std::vector<std::vector<std::string>> bad = {
      {"--mem-budget=nan"},
      {"--mem-budget=1e300"},
      {"--mem-budget=1e400"},
      {"--snapshot-dir=" + dir, "--snapshot-every-seconds=nan"},
      {"--fleet-dir=" + dir, "--fleet-ttl=inf"},
      {"--fleet-dir=" + dir, "--fleet-ttl=1e300"},
      {"--threads=4294967296"},
      {"--threads=4294967297"},
      {"--replicates=4294967297"},
      {"--fleet-dir=" + dir, "--fleet-batches=4294967296"},
      {"--fleet-dir=" + dir, "--fleet-max-batches=-1"},
      {"--heartbeat-file=" + heartbeat, "--heartbeat-every-seconds=1e10"},
      {"--heartbeat-file=" + heartbeat, "--heartbeat-every-seconds=inf"},
      {"--heartbeat-file=" + heartbeat, "--heartbeat-every-seconds=nan"},
      {"--heartbeat-file=" + heartbeat, "--heartbeat-every-seconds=1e400"}};
  for (const auto& args : bad) {
    EXPECT_EQ(run_cli(tiny_scenario(1), args), 1) << args.back();
  }
}

TEST(SweepCliFlags, BadShardsAndCadencesWithoutAnOutputExitOne) {
  // A shard outside its count, a negative cadence, and a cadence flag
  // whose output was never named; then the retired compound spellings,
  // which must fail as unknown flags rather than run.
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "ggflags").string();
  const auto heartbeat =
      (std::filesystem::path(::testing::TempDir()) / "hb2.jsonl").string();
  const std::vector<std::vector<std::string>> bad = {
      {"--shard-index=2", "--shard-count=2"},
      {"--shard-count=0"},
      {"--snapshot-dir=" + dir, "--snapshot-every-seconds=-1"},
      {"--snapshot-every-ticks=100"},
      {"--snapshot-every-seconds=30"},
      {"--heartbeat-every-seconds=2"},
      {"--fleet-dir=" + dir, "--shard-count=1"},
      {"--shard=0/2"},
      {"--snapshot-dir=" + dir, "--snapshot-every=30s"},
      {"--heartbeat=" + heartbeat + ",5"}};
  for (const auto& args : bad) {
    EXPECT_EQ(run_cli(tiny_scenario(1), args), 1) << args.back();
  }
  EXPECT_FALSE(std::filesystem::exists(heartbeat + ",5"));
}

TEST(SweepCliFlags, ShardFlagsWriteTheShardsOwnRecordFile) {
  const auto scenario = tiny_scenario(3);
  const std::filesystem::path dir = fresh_temp_dir("ggshard_flags");
  std::filesystem::create_directories(dir);
  const std::string records = (dir / "r.jsonl").string();
  ASSERT_EQ(run_cli(scenario, {"--threads=1", "--shard-index=1",
                               "--shard-count=2",
                               "--json-replicates=" + records}),
            0);
  EXPECT_FALSE(std::filesystem::exists(records));
  // One thread writes the shard's tasks in index order.
  EXPECT_EQ(slurp((dir / "r.shard-1-of-2.jsonl").string()),
            run_streaming(scenario, 1, 1, 2).second);
}

}  // namespace
}  // namespace geogossip::exp
