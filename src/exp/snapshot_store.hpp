// Durable mid-replicate snapshot files.
//
// A long replicate periodically serializes its full trajectory state (see
// sim::CheckpointPolicy); SnapshotStore gives each (cell_index, replicate)
// slot one file under a snapshot directory and persists every snapshot
// torn-write-safely through atomic_write_file: bytes land in a temp
// sibling, are fsync'd, and rename(2) flips them in — the live snapshot is
// never overwritten in place, so a crash at ANY byte offset leaves either
// the previous snapshot or the new one intact, never a hybrid.
//
// Files self-identify with (schema, scenario, master_seed, cell_index,
// replicate, seed) plus an FNV-1a checksum of the payload.  try_load
// distinguishes crash debris (truncation, bad checksum: warn and re-run the
// replicate from scratch) from misconfiguration (schema or identity
// mismatch: throw — restoring a snapshot into the wrong run would produce
// silently wrong results) and from a file that cannot be read (IoError).
//
// The store is synchronous: save() returns once the file is committed.
// Runner::run calls it from its one committer thread, so a replicate does
// not wait for the fsync; perfbench's exp.snapshot_write_ms times save()
// directly.
#ifndef GEOGOSSIP_EXP_SNAPSHOT_STORE_HPP
#define GEOGOSSIP_EXP_SNAPSHOT_STORE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/atomic_file.hpp"

namespace geogossip::exp {

/// A snapshot read back from disk: the opaque engine payload plus the
/// tick count the run had reached when it was taken (progress reporting;
/// the payload carries the authoritative counters).
struct LoadedSnapshot {
  std::uint64_t ticks = 0;
  std::string payload;
};

class SnapshotStore {
 public:
  /// Creates `dir` (and parents) if absent; throws IoError on failure.
  /// Also sweeps orphaned temp files left by crashed writers — but only
  /// files older than `stale_tmp_age_seconds`, because in fleet mode
  /// several workers share one snapshot directory and a fresh temp may be
  /// another worker's in-flight save.  Pass 0 to sweep unconditionally
  /// (single-writer directories, tests).
  SnapshotStore(std::string dir, std::string scenario,
                std::uint64_t master_seed,
                double stale_tmp_age_seconds = kStaleTempSeconds);

  /// Atomically persists `payload` for the slot (write-new-then-flip; see
  /// file comment).  Throws IoError on any filesystem failure — a
  /// checkpoint that cannot be written is an environment failure, matching
  /// the streaming sink's flush-check-throw policy.
  void save(std::size_t cell_index, std::uint32_t replicate,
            std::uint64_t seed, std::uint64_t ticks,
            std::string_view payload) const;

  /// Loads the slot's snapshot.  Absent file -> nullopt (fresh run).
  /// Truncated or checksum-corrupt file -> nullopt with a logged warning
  /// (the replicate re-runs from scratch; torn debris must never poison a
  /// resume).  A schema-version or identity mismatch (scenario,
  /// master_seed, cell_index, replicate, seed) throws ArgumentError; a
  /// file that opens but cannot be read (a directory, EIO) throws IoError.
  std::optional<LoadedSnapshot> try_load(std::size_t cell_index,
                                         std::uint32_t replicate,
                                         std::uint64_t seed) const;

  /// Deletes the slot's snapshot once the replicate's record is durable
  /// elsewhere.  Missing file is fine; other failures are logged, never
  /// thrown — cleanup must not fail a finished replicate.
  void remove(std::size_t cell_index, std::uint32_t replicate) const noexcept;

  /// The slot's snapshot file path ("<dir>/snap-c<cell>-r<replicate>.ggsnap").
  std::string path_for(std::size_t cell_index, std::uint32_t replicate) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
  std::string scenario_;
  std::uint64_t master_seed_;
};

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SNAPSHOT_STORE_HPP
