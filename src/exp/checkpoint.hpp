// The replicate record and the checkpoint model for resumable, sharded
// sweeps.
//
// A running sweep streams one JSON-lines record per finished replicate
// (replicate_record's text, written by JsonLinesSink::write_replicate and
// flushed after every line), keyed by (scenario, master_seed, cell_index,
// replicate).  Checkpoint reads such a file — possibly truncated
// mid-record by a killed process — back into a completed-set carrying the
// full ReplicateResult, so the Runner can skip finished work and re-ingest
// its results: resumed aggregates are bit-identical to an uninterrupted
// run at any thread count.  The record's writer, its reader and
// results_equal live here together, so a field is added in one module.
//
// Tolerance policy (each case is tested in tests/checkpoint_test.cpp):
//   - empty file: a valid, empty checkpoint
//   - torn final line (no trailing newline): expected crash debris —
//     skipped, stats().torn_tail set.  Exception: a tail that parses as a
//     complete record lost only its newline and is accepted as-is
//   - unparsable or incomplete interior line: skipped and counted in
//     stats().malformed; the worst case is deterministically re-running one
//     replicate
//   - record from another (scenario, master_seed): skipped and counted in
//     stats().foreign — concatenated outputs of different sweeps stay
//     loadable
//   - duplicate key with an IDENTICAL payload: kept once, counted in
//     stats().duplicate
//   - duplicate key with a CONFLICTING payload: throws ArgumentError — two
//     different results for one deterministic replicate mean corrupted or
//     mismatched inputs, and silently picking one would poison the merge
#ifndef GEOGOSSIP_EXP_CHECKPOINT_HPP
#define GEOGOSSIP_EXP_CHECKPOINT_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"

namespace geogossip::exp {

/// What Checkpoint::load saw, accumulated across load() calls so a k-shard
/// merge reports totals.  Drivers surface non-zero counters as warnings.
struct CheckpointStats {
  std::size_t accepted = 0;    ///< replicate records added to the set
  std::size_t duplicate = 0;   ///< identical payload for an existing key
  std::size_t foreign = 0;     ///< other (scenario, master_seed) records
  std::size_t malformed = 0;   ///< unparsable/incomplete interior lines
  std::size_t other_lines = 0; ///< non-replicate records (cell summaries)
  bool torn_tail = false;      ///< final line was crash debris
};

/// The text of one replicate record ({"record":"replicate", ...}, no
/// trailing newline): the schema stamp, the identity Checkpoint keys on
/// and the full result payload (per-category transmissions, exchange
/// counts, metrics), so a resumed run re-ingests it bit-identically
/// instead of re-running.
std::string replicate_record(std::string_view scenario,
                             std::uint64_t master_seed,
                             std::string_view cell_label,
                             std::size_t cell_index, std::uint32_t replicate,
                             const ReplicateResult& result);

/// Completed-set of replicate records for ONE (scenario, master_seed).
class Checkpoint {
 public:
  /// (cell_index, replicate) — the durable slot identity within a sweep.
  using Key = std::pair<std::size_t, std::uint32_t>;

  Checkpoint(std::string scenario, std::uint64_t master_seed);

  /// Parses one JSON-lines stream into the set (see the tolerance policy
  /// above).  May be called repeatedly to fold shard files together;
  /// throws ArgumentError on conflicting payloads for the same key.
  void load(std::istream& in);
  /// Opens and loads `path`; throws ArgumentError if it cannot be opened.
  void load_file(const std::string& path);

  const std::string& scenario() const noexcept { return scenario_; }
  std::uint64_t master_seed() const noexcept { return master_seed_; }
  const CheckpointStats& stats() const noexcept { return stats_; }

  std::size_t size() const noexcept { return records_.size(); }
  /// The persisted result for a completed pair, or nullptr.
  const ReplicateResult* find(std::size_t cell_index,
                              std::uint32_t replicate) const;
  /// Ordered map of every completed pair (merge validation walks this).
  const std::map<Key, ReplicateResult>& records() const noexcept {
    return records_;
  }

 private:
  std::string scenario_;
  std::uint64_t master_seed_ = 0;
  std::map<Key, ReplicateResult> records_;
  CheckpointStats stats_;
};

/// Folds replicate-record files into one checkpoint for `scenario` and
/// warns about every kind of line the tolerance policy above skipped:
/// malformed, foreign, duplicate and torn.  Each warning starts with
/// `context` ("resume", "fleet: batch 3 resume").  Warnings go through the
/// leveled logger, not bare stderr: unattended sweeps read them from piped
/// logs, where the timestamp and severity prefix is what makes them
/// correlatable with heartbeat files.
std::shared_ptr<Checkpoint> fold_records(const Scenario& scenario,
                                         const std::vector<std::string>& files,
                                         std::string_view context);

/// Field-for-field equality over everything replicate_record persists
/// (seed, convergence, errors, per-category transmissions, exchange
/// counts, metrics).  NaN compares equal to NaN — two loads of one record
/// are a duplicate, never a conflict.  Used to tell benign duplicates from
/// conflicting records.
bool results_equal(const ReplicateResult& a,
                   const ReplicateResult& b) noexcept;

/// Round-robin shard partition over the flattened (cell_index, replicate)
/// task stream (task = cell_index * replicates + replicate): shard i of k
/// owns the tasks with task % k == i.  Every shard touches every cell
/// whenever k <= replicates, so long-running XL cells spread across
/// processes instead of serializing onto one.  shard_count <= 1 owns
/// everything.
inline bool shard_owns(std::uint32_t shard_index, std::uint32_t shard_count,
                       std::size_t task) noexcept {
  return shard_count <= 1 || task % shard_count == shard_index;
}

/// How many of the tasks [0, task_count) shard i of k owns (shard_owns).
inline std::uint64_t shard_task_count(std::uint32_t shard_index,
                                      std::uint32_t shard_count,
                                      std::uint64_t task_count) noexcept {
  if (shard_count <= 1) return task_count;
  return task_count / shard_count +
         (task_count % shard_count > shard_index ? 1 : 0);
}

/// Derives a per-shard output path: every "{shard}" placeholder becomes
/// "<i>-of-<k>"; without a placeholder (and k > 1) ".shard-<i>-of-<k>" is
/// inserted before the basename's extension ("out.jsonl" ->
/// "out.shard-0-of-2.jsonl").  Identity when k == 1 and no placeholder.
std::string shard_path(const std::string& path, std::uint32_t shard_index,
                       std::uint32_t shard_count);

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_CHECKPOINT_HPP
