// Lease files: the fleet's mutual-exclusion and liveness primitive.
//
// A fleet directory coordinates workers through a shared filesystem — no
// network, no coordinator process.  Work is cut into batches (batch b of
// B is exactly round-robin shard b/B of the (cell, replicate) stream, see
// exp::shard_owns), and ownership of a batch is a LEASE FILE:
//
//   <fleet>/queue/batch-<id>.json            unclaimed ticket
//   <fleet>/leases/batch-<id>.g<gen>.<owner>.lease   claimed, generation g
//
// Claiming is rename(2) of the ticket onto the g0 lease path: exactly one
// renamer wins, the rest get ENOENT.  The owner then renews the lease in
// place (write-temp-then-rename) before each TTL expires.  Stealing an
// expired lease is another rename, from generation g to g+1 with the new
// owner's name in the filename — again exactly-once.  The filename is the
// authoritative (batch, generation, owner) identity; the JSON content
// carries the expiry the owner last committed.
//
// Leases are an EFFICIENCY mechanism, not a correctness one: replicate
// seeds are deterministic, so if a race ever leaves two workers running
// one batch, they produce byte-identical records that merge as benign
// duplicates.  That is why every "lost a race" outcome below is a calm
// nullopt/false, never an error.
#ifndef GEOGOSSIP_FLEET_LEASE_HPP
#define GEOGOSSIP_FLEET_LEASE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip::fleet {

struct Lease {
  std::uint32_t batch = 0;
  std::uint32_t generation = 0;
  std::string owner;
  double ttl_seconds = 0.0;
  std::int64_t acquired_unix_ms = 0;
  std::int64_t expires_unix_ms = 0;
  /// The owner's heartbeat file, fleet-dir-relative: a human (or
  /// `parallel_sweep --fleet-status`) follows it to see the owner's live
  /// progress.
  std::string heartbeat;
  /// Current lease file path on disk.
  std::string path;

  /// Expired leases are reclaimable.  A never-renewed lease (a claimant
  /// killed between the claiming rename and its first renewal) has
  /// expires_unix_ms == 0 and is immediately reclaimable — dying right
  /// after a claim is recovered instantly, not after a full TTL.
  bool expired(std::int64_t now_unix_ms) const noexcept {
    return expires_unix_ms < now_unix_ms;
  }
  /// "batch-<id>.g<gen>" — the identity shown in heartbeats and logs.
  std::string label() const;
};

/// Owner ids become filename segments; restrict them to [A-Za-z0-9_-].
bool valid_owner(const std::string& owner) noexcept;

/// Commits `lease`'s content to `lease.path` (atomic_write_file; throws
/// IoError when its retries run out).  Queue tickets are written through
/// it too, as an unowned generation-0 Lease that expires at 0: the
/// claiming rename then needs no rewrite to leave a parseable lease, and
/// a claimant killed before its first renewal leaves one that reads as
/// expired (instantly reclaimable).
void write_lease_file(const Lease& lease);

/// "batch-<id>.g<gen>.<owner>.lease"
std::string lease_filename(std::uint32_t batch, std::uint32_t generation,
                           const std::string& owner);

// The fleet's one file-name grammar.  Ids and generations are 1-9
// decimal digits (so they never wrap a uint32), owners pass valid_owner,
// and any other name (temp debris, foreign files) parses as false.

/// "batch-<id>.json": a queue ticket or a done marker.
bool parse_ticket_filename(std::string_view name, std::uint32_t* batch);
/// Inverse of lease_filename; with `suffix` ".jsonl" it reads the
/// record-file names of records_path instead.
bool parse_lease_filename(std::string_view name, std::uint32_t* batch,
                          std::uint32_t* generation, std::string* owner,
                          std::string_view suffix = ".lease");

class LeaseStore {
 public:
  /// `fleet_dir` must already contain queue/ and leases/ (ensure_plan
  /// creates them).  Throws ArgumentError when they are absent — a typo'd
  /// --fleet-dir must not silently act as an empty, completed fleet.
  explicit LeaseStore(std::string fleet_dir);

  /// Batch ids still holding an unclaimed ticket, ascending.
  std::vector<std::uint32_t> queued() const;

  /// Atomically claims `batch`'s ticket (rename wins exactly once) and
  /// immediately renews, so the lease file carries a real expiry.
  /// nullopt = lost the race (or the ticket was already gone).
  std::optional<Lease> try_claim(std::uint32_t batch,
                                 const std::string& owner,
                                 double ttl_seconds,
                                 const std::string& heartbeat) const;

  /// Every current lease, sorted by (batch, generation).  Filenames that
  /// do not parse are skipped; content that does not parse yields a lease
  /// with expires_unix_ms == 0 (never renewed — reclaimable).
  std::vector<Lease> leases() const;

  /// Steals an expired lease: re-reads the file first (its owner may have
  /// renewed since the caller listed), then renames generation g onto
  /// g+1 under the new owner and renews.  nullopt = not actually expired
  /// anymore, or another worker won the steal rename.
  std::optional<Lease> try_steal(const Lease& victim,
                                 const std::string& owner,
                                 double ttl_seconds,
                                 const std::string& heartbeat) const;

  /// Extends the lease's expiry by its TTL (write-temp-then-rename).
  /// Returns false — and removes the caller's residue — when the lease
  /// was lost: the file vanished or a higher generation exists.  A false
  /// return does NOT mean "stop working": batch output is idempotent, so
  /// the polite response is to finish and let the records deduplicate.
  bool renew(Lease& lease) const;

  /// Removes every lease file of `batch`, any generation or owner — the
  /// completion sweep.  Best-effort, never throws.
  void remove_lease_files(std::uint32_t batch) const noexcept;

  /// Removes one lease file (a failing worker releasing its claim so
  /// others reclaim immediately instead of waiting out the TTL).
  void release(const Lease& lease) const noexcept;

  /// Wall-clock now in unix milliseconds (lease expiries are wall time —
  /// the only cross-process clock a shared filesystem offers).
  static std::int64_t now_unix_ms();

 private:
  std::string fleet_dir_;
};

}  // namespace geogossip::fleet

#endif  // GEOGOSSIP_FLEET_LEASE_HPP
