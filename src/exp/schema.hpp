// Record-format versioning shared by the durable artifacts of a sweep:
// streaming replicate records (replicate_record / Checkpoint) and mid-replicate
// snapshot files (SnapshotStore).
//
// The version is stamped into every record a process writes; loaders reject
// a mismatching stamp loudly (ArgumentError) instead of re-ingesting bytes
// whose layout they would misinterpret.  Records WITHOUT a stamp are
// schema-1 legacy output and stay loadable — version 2 only added the stamp
// itself, so their payload reads identically.
#ifndef GEOGOSSIP_EXP_SCHEMA_HPP
#define GEOGOSSIP_EXP_SCHEMA_HPP

#include <cstdint>

namespace geogossip::exp {

/// Bump when the replicate-record or snapshot-file layout changes shape in
/// a way old readers would misinterpret.
inline constexpr std::uint32_t kSchemaVersion = 2;

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_SCHEMA_HPP
