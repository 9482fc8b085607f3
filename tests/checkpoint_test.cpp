// Tests for the resumable-sweep checkpoint layer (src/exp/checkpoint.*):
// record round-trips through JsonLinesSink::write_replicate, the documented
// fault-tolerance policy (torn tails, malformed lines, duplicates,
// conflicts, foreign records, empty files), the round-robin shard partition
// helpers, and the crash-safety contract of the sink itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/sink.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace geogossip::exp {
namespace {

constexpr std::uint64_t kSeed = 7;

/// A result exercising every persisted field.
ReplicateResult full_result(std::uint64_t seed) {
  ReplicateResult result;
  result.seed = seed;
  result.converged = true;
  result.final_error = 0.12345678912345678;
  result.sum_drift = 1.5e-14;
  result.transmissions.by_category = {10, 20, 3};
  result.far_exchanges = 4;
  result.near_exchanges = 9;
  result.metrics["hops"] = 3.5;
  result.metrics["tv distance"] = 1.25e-6;
  result.metrics["signed"] = -2.75;
  return result;
}

/// Serializes records exactly the way a streaming sweep does.
std::string record_lines(
    const std::vector<std::pair<Checkpoint::Key, ReplicateResult>>& records,
    const std::string& scenario = "tiny") {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.label = "cell \"quoted\"\\backslash";  // exercises string escaping
  cell.n = 64;
  for (const auto& [key, result] : records) {
    sink.write_replicate(scenario, kSeed, cell, key.first, key.second,
                         result);
  }
  return out.str();
}

Checkpoint load_text(const std::string& text,
                     const std::string& scenario = "tiny") {
  Checkpoint checkpoint(scenario, kSeed);
  std::istringstream in(text);
  checkpoint.load(in);
  return checkpoint;
}

// ------------------------------------------------------------ round trip ----

TEST(Checkpoint, RoundTripsEveryPersistedField) {
  const auto original = full_result(12345);
  const auto checkpoint =
      load_text(record_lines({{{2, 5}, original}}));

  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().accepted, 1u);
  EXPECT_NE(checkpoint.find(2, 5), nullptr);
  EXPECT_EQ(checkpoint.find(2, 4), nullptr);
  const ReplicateResult* loaded = checkpoint.find(2, 5);
  ASSERT_NE(loaded, nullptr);
  // Bit-identical re-ingestion: every field survives the text round trip
  // (JsonObject writes doubles with 17 significant digits, which round-trip).
  EXPECT_TRUE(results_equal(original, *loaded));
  EXPECT_EQ(loaded->seed, 12345u);
  EXPECT_EQ(loaded->transmissions.total(), 33u);
  EXPECT_EQ(loaded->metrics.at("tv distance"), 1.25e-6);
  EXPECT_EQ(loaded->metrics.at("signed"), -2.75);
}

TEST(Checkpoint, RoundTripsNonFiniteValuesAndTreatsNaNDuplicatesAsEqual) {
  // NaN-propagating trackers and arbitrary probe metrics can persist
  // non-finite doubles; the sink writes NaN/Infinity/-Infinity tokens and
  // the reader must load them — a permanently unloadable record would
  // re-run (and re-append) forever and block --merge-only.
  ReplicateResult result;
  result.seed = 5;
  result.converged = false;
  result.final_error = std::numeric_limits<double>::quiet_NaN();
  result.metrics["up"] = std::numeric_limits<double>::infinity();
  result.metrics["down"] = -std::numeric_limits<double>::infinity();
  const std::string line = record_lines({{{0, 0}, result}});
  EXPECT_NE(line.find("\"final_error\":NaN"), std::string::npos);

  // Re-reads of the same NaN record are duplicates, never conflicts.
  const auto checkpoint = load_text(line + line);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().duplicate, 1u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
  const ReplicateResult* loaded = checkpoint.find(0, 0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(std::isnan(loaded->final_error));
  EXPECT_EQ(loaded->metrics.at("up"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(loaded->metrics.at("down"),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(results_equal(result, *loaded));
}

TEST(Checkpoint, RoundTripsExtremeSeedAndZeroTransmissions) {
  ReplicateResult result;  // a probe-style record: no tx, no exchanges
  result.seed = 0xFFFFFFFFFFFFFFFFull;
  result.converged = true;
  result.final_error = 0.0;
  result.metrics["value"] = 42.0;
  const auto checkpoint = load_text(record_lines({{{0, 0}, result}}));
  const ReplicateResult* loaded = checkpoint.find(0, 0);
  ASSERT_NE(loaded, nullptr);
  // 2^64-1 does not survive a double round trip — the uint path must.
  EXPECT_EQ(loaded->seed, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_TRUE(results_equal(result, *loaded));
}

// -------------------------------------------------------- fault injection ----

TEST(Checkpoint, EmptyStreamIsAValidEmptyCheckpoint) {
  const auto checkpoint = load_text("");
  EXPECT_EQ(checkpoint.size(), 0u);
  EXPECT_EQ(checkpoint.stats().accepted, 0u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
}

TEST(Checkpoint, TruncationAtEveryByteOffsetNeverThrowsOrInventsRecords) {
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  const std::size_t first_line_end = full.find('\n') + 1;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const auto checkpoint = load_text(full.substr(0, cut));
    // A record is recovered exactly when all of its bytes are on disk (a
    // tail missing only its newline is still a complete record); torn
    // prefixes never yield a record and never throw.
    const bool first_complete = cut + 1 >= first_line_end;
    const bool second_complete = cut + 1 >= full.size();
    EXPECT_EQ(checkpoint.find(0, 0) != nullptr, first_complete)
        << "cut=" << cut;
    EXPECT_EQ(checkpoint.find(0, 1) != nullptr, second_complete)
        << "cut=" << cut;
    EXPECT_EQ(checkpoint.size(), (first_complete ? 1u : 0u) +
                                     (second_complete ? 1u : 0u))
        << "cut=" << cut;
    EXPECT_EQ(checkpoint.stats().malformed, 0u) << "cut=" << cut;
  }
}

TEST(Checkpoint, TornFinalLineIsToleratedAndFlagged) {
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  const std::size_t mid_second =
      full.find('\n') + 1 + (full.size() - full.find('\n')) / 2;
  const auto checkpoint = load_text(full.substr(0, mid_second));
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_TRUE(checkpoint.stats().torn_tail);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, MalformedInteriorLineIsSkippedAndCounted) {
  const std::string good = record_lines({{{0, 0}, full_result(11)}});
  const std::string text =
      good + "this is not json\n" +
      record_lines({{{0, 1}, full_result(12)}});
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 1u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
}

TEST(Checkpoint, IncompleteRecordFieldsAreMalformedNotFatal) {
  // Valid JSON, but not a trustworthy record: missing seed, transmissions
  // total without its category breakdown, out-of-range replicate.
  const std::string text =
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":0,\"converged\":true,"
      "\"final_error\":0.5,\"transmissions\":0}\n"
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":1,\"seed\":3,\"converged\":true,"
      "\"final_error\":0.5,\"transmissions\":30}\n"
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":4294967296,\"seed\":3,"
      "\"converged\":true,\"final_error\":0.5,\"transmissions\":0}\n";
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 0u);
  EXPECT_EQ(checkpoint.stats().malformed, 3u);
}

TEST(Checkpoint, DuplicateIdenticalRecordsCollapseWithACount) {
  const std::string line = record_lines({{{1, 2}, full_result(11)}});
  const auto checkpoint = load_text(line + line + line);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().accepted, 1u);
  EXPECT_EQ(checkpoint.stats().duplicate, 2u);
}

TEST(Checkpoint, ConflictingRecordsForOneKeyThrow) {
  auto conflicting = full_result(11);
  conflicting.final_error = 0.999;
  const std::string text =
      record_lines({{{1, 2}, full_result(11)}}) +
      record_lines({{{1, 2}, conflicting}});
  Checkpoint checkpoint("tiny", kSeed);
  std::istringstream in(text);
  EXPECT_THROW(checkpoint.load(in), ArgumentError);
}

TEST(Checkpoint, WrongScenarioOrMasterSeedRecordsAreForeign) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.n = 64;
  sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  sink.write_replicate("other", kSeed, cell, 0, 1, full_result(12));
  sink.write_replicate("tiny", kSeed + 1, cell, 0, 2, full_result(13));
  const auto checkpoint = load_text(out.str());
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_NE(checkpoint.find(0, 0), nullptr);
  EXPECT_EQ(checkpoint.stats().foreign, 2u);
}

TEST(Checkpoint, CellSummaryLinesInterleaveAsOtherLines) {
  // A replicate file may also hold per-cell summary lines (no "record"
  // discriminator) — they are passed over, not mistaken for replicates.
  const std::string text =
      "{\"scenario\":\"tiny\",\"cell\":\"boyd\",\"n\":64}\n" +
      record_lines({{{0, 0}, full_result(11)}}) +
      "{\"record\":\"future-kind\",\"scenario\":\"tiny\"}\n";
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().other_lines, 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, BlankLinesAreIgnored) {
  const auto checkpoint =
      load_text("\n  \n" + record_lines({{{0, 0}, full_result(11)}}) + "\n");
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, LoadFileThrowsOnMissingPath) {
  Checkpoint checkpoint("tiny", kSeed);
  EXPECT_THROW(checkpoint.load_file("/no/such/dir/ckpt.jsonl"),
               ArgumentError);
}

TEST(Checkpoint, LoadAccumulatesAcrossShardFiles) {
  Checkpoint checkpoint("tiny", kSeed);
  std::istringstream shard0(record_lines({{{0, 0}, full_result(11)}}));
  std::istringstream shard1(record_lines({{{0, 1}, full_result(12)}}));
  checkpoint.load(shard0);
  checkpoint.load(shard1);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.records().begin()->first,
            (Checkpoint::Key{0, 0}));
}

// -------------------------------------------------------- shard partition ----

TEST(Sharding, RoundRobinPartitionIsDisjointAndCovering) {
  constexpr std::size_t kTasks = 60;
  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    std::size_t covered = 0;
    for (std::size_t task = 0; task < kTasks; ++task) {
      std::uint32_t owners = 0;
      for (std::uint32_t shard = 0; shard < k; ++shard) {
        owners += shard_owns(shard, k, task) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1u) << "task " << task << " k " << k;
      covered += owners;
    }
    EXPECT_EQ(covered, kTasks);
  }
}

TEST(Sharding, RoundRobinTouchesEveryCellWhenShardsFitReplicates) {
  // task = cell_index * replicates + replicate; with k <= replicates every
  // shard must own at least one replicate of every cell.
  constexpr std::uint32_t kReplicates = 5;
  constexpr std::size_t kCells = 4;
  for (const std::uint32_t k : {2u, 3u, 5u}) {
    for (std::uint32_t shard = 0; shard < k; ++shard) {
      std::set<std::size_t> cells;
      for (std::size_t task = 0; task < kCells * kReplicates; ++task) {
        if (shard_owns(shard, k, task)) cells.insert(task / kReplicates);
      }
      EXPECT_EQ(cells.size(), kCells) << "shard " << shard << "/" << k;
    }
  }
}

TEST(Sharding, ShardPathInsertsTagBeforeExtension) {
  EXPECT_EQ(shard_path("out.jsonl", 0, 2), "out.shard-0-of-2.jsonl");
  EXPECT_EQ(shard_path("runs/e5.records.jsonl", 1, 3),
            "runs/e5.shard-1-of-3.records.jsonl");
  EXPECT_EQ(shard_path("noext", 2, 4), "noext.shard-2-of-4");
  // Dots in directories do not count as extensions.
  EXPECT_EQ(shard_path("v1.2/out", 0, 2), "v1.2/out.shard-0-of-2");
  // Unsharded paths pass through untouched.
  EXPECT_EQ(shard_path("out.jsonl", 0, 1), "out.jsonl");
}

TEST(Sharding, ShardPathHonorsPlaceholder) {
  EXPECT_EQ(shard_path("out-{shard}.jsonl", 1, 4), "out-1-of-4.jsonl");
  EXPECT_EQ(shard_path("{shard}/{shard}.jsonl", 0, 2),
            "0-of-2/0-of-2.jsonl");
  // Placeholder substitution applies even unsharded, keeping scripted
  // paths stable across k.
  EXPECT_EQ(shard_path("out-{shard}.jsonl", 0, 1), "out-0-of-1.jsonl");
}

TEST(Sharding, ShardPathValidatesCoordinates) {
  EXPECT_THROW(shard_path("out.jsonl", 2, 2), ArgumentError);
  EXPECT_THROW(shard_path("out.jsonl", 0, 0), ArgumentError);
}

// -------------------------------------------------------- sink crash-safety ----

TEST(SinkCrashSafety, WriteReplicateThrowsWhenTheStreamHasFailed) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.n = 64;
  sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  out.setstate(std::ios::badbit);  // the disk just filled up
  EXPECT_THROW(
      sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12)),
      IoError);
}

TEST(SinkCrashSafety, WriteReplicateThrowsWhenTheLineWasNeverWritten) {
  // A stream that already holds failbit writes nothing, yet its flush
  // succeeds; the replicate must not be reported as persisted.
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.n = 64;
  out.setstate(std::ios::failbit);
  EXPECT_THROW(
      sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11)),
      IoError);
  EXPECT_TRUE(out.str().empty());
}

TEST(FoldRecords, ReportsEveryKindOfSkippedLine) {
  // One interior malformed line, one foreign record, one duplicate and a
  // torn tail: each gets a warning that starts with the caller's context.
  const std::string path = testing::TempDir() + "checkpoint_test_fold.jsonl";
  const std::string ours = record_lines({{{0, 0}, full_result(11)}});
  const std::string torn = record_lines({{{0, 1}, full_result(12)}});
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << ours << "{\"not\": a record\n" << ours
         << record_lines({{{0, 2}, full_result(13)}}, "other")
         << torn.substr(0, torn.size() / 2);
  }
  Scenario scenario;
  scenario.name = "tiny";
  scenario.master_seed = kSeed;
  std::ostringstream log;
  const LogLevel level = LogConfig::level();
  LogConfig::set_level(LogLevel::kWarn);
  LogConfig::set_sink(log);
  const auto checkpoint =
      fold_records(scenario, {path}, "fleet: batch 3 resume");
  LogConfig::set_sink(std::cerr);
  LogConfig::set_level(level);
  std::remove(path.c_str());

  EXPECT_EQ(checkpoint->size(), 1u);
  const std::string text = log.str();
  for (const char* kind :
       {"skipped 1 malformed line(s)", "ignored 1 record(s) from another",
        "collapsed 1 duplicate record(s)", "tolerated a torn final line"}) {
    EXPECT_NE(text.find(std::string("fleet: batch 3 resume: ") + kind),
              std::string::npos)
        << kind << " missing from:\n" << text;
  }
}

TEST(SinkCrashSafety, AppendModeSealsATornTail) {
  const std::string path =
      testing::TempDir() + "checkpoint_test_append.jsonl";
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  {
    // Simulate a killed writer: first record intact, second torn mid-line.
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << full.substr(0, full.find('\n') + 1 + 25);
  }
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.label = "cell \"quoted\"\\backslash";
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12));
  }
  Checkpoint checkpoint("tiny", kSeed);
  checkpoint.load_file(path);
  // The sealed debris is one malformed interior line; both real records
  // survive and nothing is torn any more.
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 1u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
  std::remove(path.c_str());
}

TEST(SinkCrashSafety, AppendModeOnCleanOrMissingFileAddsNothing) {
  const std::string path =
      testing::TempDir() + "checkpoint_test_append_clean.jsonl";
  std::remove(path.c_str());
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  }
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12));
  }
  Checkpoint checkpoint("tiny", kSeed);
  checkpoint.load_file(path);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geogossip::exp
