// The fleet status board: one read-only pass over a fleet directory
// (layout in plan.hpp) through the readers the workers use, printed for an
// operator and checked against the directory's invariants:
//   - plan.json loads (try_load_plan checks its schema and field ranges);
//   - every batch id on disk lies inside the plan;
//   - every batch has a ticket, a lease or a done marker (one with none is
//     stranded: no worker will ever pick it up);
//   - a complete fleet (every batch done) has no ticket, lease, parked
//     snapshot or temp file left;
//   - on a fleet in flight, no temp file is older than kStaleTempSeconds.
// An expired lease is no violation: it is reclaimable.
#ifndef GEOGOSSIP_FLEET_STATUS_HPP
#define GEOGOSSIP_FLEET_STATUS_HPP

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace geogossip::fleet {

/// Prints the board of `fleet_dir` as of `now_unix_ms` — the plan, each
/// batch as queued, leased (owner, generation, expiry) or done, its
/// record-file count, each worker's last heartbeat, parked snapshots and
/// temp files — then one "INVALID: <problem>" line per violated
/// invariant, or "fleet invariants hold".  Returns the violation count.
std::size_t print_fleet_status(const std::string& fleet_dir,
                               std::int64_t now_unix_ms, std::ostream& out);

}  // namespace geogossip::fleet

#endif  // GEOGOSSIP_FLEET_STATUS_HPP
