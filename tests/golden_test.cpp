// Golden-output gate: every built-in -quick scenario, run through
// exp::Runner at 4 threads, must reproduce the committed FNV-1a hashes of
// its three outputs — the per-cell CSV, the per-cell JSON lines, and the
// replicate records in (cell_index, replicate) order (the streamed record
// file is in completion order, so the records are re-emitted from
// keep_replicates instead).  A refactor that changes any output byte of
// any scenario fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "support/snapshot.hpp"

namespace geogossip::exp {
namespace {

struct GoldenHashes {
  const char* scenario;
  std::uint64_t csv;
  std::uint64_t jsonl;
  std::uint64_t records;
};

// clang-format off
constexpr GoldenHashes kGolden[] = {
    {"e1-contraction-quick",    0xaff8cf65f69a3051ull, 0xd4687d343ed3c359ull, 0xf75a024d6ea41245ull},
    {"e10-ablation-quick",      0xd1feee9cc8574f4bull, 0x76f87c6d67d3af81ull, 0x4cc08bc0dd58c773ull},
    {"e11-decentralized-quick", 0xa07eff768f802904ull, 0xdd631d75a8f69cabull, 0xd3b7a7b7eb3953d2ull},
    {"e2-tail-quick",           0xdba298677da2895aull, 0xf21e954f016c76c1ull, 0x0a6d4b56d4313c9eull},
    {"e3-perturbed-quick",      0x74b47f8f042f2ef4ull, 0xebd74733604ec8b6ull, 0x65038e08c23e141bull},
    {"e4-spectral-quick",       0x429518d575880af9ull, 0xd9e3bf40f2e26b98ull, 0x5b5d0d01fe241089ull},
    {"e5-quick",                0x877af8c268100f78ull, 0x0fd11cce5ae5d812ull, 0x143da614f72bc259ull},
    {"e6-routing-quick",        0x4a9382e06a1ff631ull, 0x5dedf0fdc6e5395bull, 0x92c8707101466d6cull},
    {"e7-connectivity-quick",   0x9c8322fa74c0433cull, 0x0ef47960c9743122ull, 0x391830a409420e35ull},
    {"e8-occupancy-quick",      0x1ff25bec20729210ull, 0x86c2be31a69147a0ull, 0x33354d480a2a3c66ull},
    {"e9-rejection-quick",      0x9d99c07fb94c26ceull, 0x8a020bf8f609c0a8ull, 0xfcd1cb9e6beaac81ull},
};
// clang-format on

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(value));
  return buf;
}

TEST(GoldenOutput, EveryQuickScenarioMatchesTheCommittedHashes) {
  std::set<std::string> seen;
  for (const std::string& name : preset_names()) {
    if (name.size() < 6 || name.substr(name.size() - 6) != "-quick") {
      continue;
    }
    const Scenario scenario = *find_preset(name);
    // Aliases (e5-scaling-quick) build the same scenario under its
    // canonical name; hash each scenario once.
    if (!seen.insert(scenario.name).second) continue;

    RunnerOptions options;
    options.threads = 4;
    options.keep_replicates = true;
    const SweepSummary summary = Runner(options).run(scenario);

    std::ostringstream csv;
    CsvSink(csv).write(summary);
    std::ostringstream jsonl;
    JsonLinesSink(jsonl).write(summary);
    std::ostringstream records;
    JsonLinesSink record_sink(records);
    for (const CellSummary& cs : summary.cells) {
      ASSERT_EQ(cs.raw.size(), scenario.replicates) << scenario.name;
      for (std::uint32_t r = 0; r < scenario.replicates; ++r) {
        record_sink.write_replicate(scenario.name, scenario.master_seed,
                                    cs.cell, cs.cell_index, r, cs.raw[r]);
      }
    }

    const GoldenHashes* golden = nullptr;
    for (const GoldenHashes& entry : kGolden) {
      if (scenario.name == entry.scenario) golden = &entry;
    }
    const std::uint64_t csv_hash = fnv1a64(csv.str());
    const std::uint64_t jsonl_hash = fnv1a64(jsonl.str());
    const std::uint64_t records_hash = fnv1a64(records.str());
    const std::string actual = "{\"" + scenario.name + "\", " +
                               hex(csv_hash) + ", " + hex(jsonl_hash) + ", " +
                               hex(records_hash) + "}";
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden entry: " << actual;
      continue;
    }
    EXPECT_EQ(csv_hash, golden->csv) << "CSV differs: " << actual;
    EXPECT_EQ(jsonl_hash, golden->jsonl) << "JSONL differs: " << actual;
    EXPECT_EQ(records_hash, golden->records) << "records differ: " << actual;
  }
  EXPECT_EQ(seen.size(), std::size(kGolden));
}

}  // namespace
}  // namespace geogossip::exp
