// Periodic heartbeat files: the liveness signal for unattended sweeps.
//
// A Heartbeat owns a background thread that, every `interval_seconds`,
// appends one JSON line — shard coordinates, completed/total replicate
// counts, the most recently started (cell, replicate), the process RSS
// high-water and the flush wall-clock timestamp — and commits the WHOLE
// file via atomic_write_file (temp sibling, fsync, rename), so a reader (the fleet coordinator
// deciding whether a lease owner is alive, or a human tailing a remote
// run) never observes a torn line: every line of the file parses, always.
//
// Heartbeats are observability, not results: a beat failure (full disk,
// revoked mount) is retried with bounded backoff, then logged and
// swallowed — it must never kill an hours-long sweep that is otherwise
// making progress.  The commit runs OUTSIDE the state mutex, so a slow
// or retrying filesystem never blocks note_start/note_done callers on
// the simulation's hot path.
//
// Schema (one object per line; see README "Observability"):
//   {"record":"heartbeat","scenario":S,"shard_index":i,"shard_count":k,
//    "completed":c,"total":t,"cell":ci,"replicate":r,"rss_kb":m,
//    "flush_unix_ms":w,"seq":q}
// Fleet workers add two optional keys: "worker" (the stable worker id)
// and "lease" (the lease currently held, e.g. "batch-3.g2"; absent
// between batches).  `cell`/`replicate` are -1 until the first replicate
// starts; `seq` increases by 1 per line, so a stuck `seq` means a dead
// writer.
#ifndef GEOGOSSIP_OBS_HEARTBEAT_HPP
#define GEOGOSSIP_OBS_HEARTBEAT_HPP

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace geogossip::obs {

class Heartbeat {
 public:
  struct Options {
    std::string path;
    double interval_seconds = 5.0;
    std::string scenario;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    /// Replicates this process is expected to account for (owned tasks).
    /// Fleet workers start at 0 and add_total() per leased batch.
    std::uint64_t total_replicates = 0;
    /// Stable worker identity (fleet mode); empty omits the JSON key.
    std::string worker;
  };

  /// Longest interval accepted (about 31 years), so the timer's wait in
  /// nanoseconds fits an int64.
  static constexpr double kMaxIntervalSeconds = 1e9;

  /// Sweeps stale temp siblings of `path` left by a crashed predecessor,
  /// writes the first beat immediately (a scheduler learns the writer is
  /// alive without waiting a full interval), then starts the timer thread.
  /// Throws ArgumentError on an empty path or an interval outside
  /// (0, kMaxIntervalSeconds].
  explicit Heartbeat(Options options);
  /// stop()s if the caller has not.
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// A replicate began: remembered as the "current" (cell, replicate).
  void note_start(std::int64_t cell_index, std::int64_t replicate);
  /// A replicate finished (and, for streamed sweeps, was persisted).
  void note_done();
  /// Bulk-credit replicates completed without running (checkpoint
  /// re-ingestion on resume).
  void add_completed(std::uint64_t count);
  /// More work became owned (a fleet worker claimed another batch).
  void add_total(std::uint64_t count);
  /// Lease currently held; empty clears it (shown as an optional key).
  void set_lease(std::string lease);

  /// Writes a final beat and joins the timer thread.  Idempotent.
  void stop();

  /// Lines written so far (tests; includes the initial and final beats).
  std::uint64_t beats() const;

 private:
  void loop();
  /// Appends the next line to the in-memory image and returns a copy of
  /// the image to commit.  Caller holds mu_.
  std::string compose_locked();
  /// Commits a composed image with write-temp-then-rename, retrying
  /// transient failures.  Never called concurrently: the constructor
  /// commits before the thread exists, the thread while it runs, and
  /// stop() after the join.  Caller must NOT hold mu_.
  void commit(const std::string& image);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t total_ = 0;
  std::int64_t current_cell_ = -1;
  std::int64_t current_replicate_ = -1;
  std::string lease_;
  std::uint64_t seq_ = 0;
  std::string lines_;  ///< full file image, rewritten atomically per beat
  std::thread thread_;
};

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_HEARTBEAT_HPP
