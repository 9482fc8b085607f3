// Whole-file I/O: the library's one write-temp-then-rename commit, and
// its one whole-file read.
//
// Durable state that readers open while writers replace it (snapshot
// slots, heartbeat files, fleet plans, tickets, leases and markers, the
// canonical replicate-record file) is committed by writing the new bytes
// to a temp sibling "<path>.tmp.<pid>", flushing and fsync'ing them, and
// rename(2)-ing the temp over the target.  A reader therefore sees the
// previous complete file or the new one, never a prefix, and a crash at
// any byte leaves at worst a temp sibling behind — crash debris that
// temp_siblings() finds and sweep_stale_temps() removes.  The pid in the
// temp name keeps two processes rewriting one path from interleaving a
// single temp file.
#ifndef GEOGOSSIP_SUPPORT_ATOMIC_FILE_HPP
#define GEOGOSSIP_SUPPORT_ATOMIC_FILE_HPP

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip {

/// Commits `content` to `path` atomically (see above).  Transient
/// failures are retried with backoff through retry_io, each failed
/// attempt removing its temp file; throws IoError when the retries run
/// out.
void atomic_write_file(const std::string& path, std::string_view content);

/// The whole file at `path`, or nullopt when it cannot be opened (absent,
/// or not readable); each caller decides what a missing file means.  A
/// read that fails once the file is open (a directory at the path, EIO)
/// throws IoError naming the path.
std::optional<std::string> read_file(const std::string& path);

/// Every temp sibling of `path` now on disk, whichever process left it.
std::vector<std::string> temp_siblings(const std::string& path);

/// Age past which a temp file counts as crash debris: a live writer
/// renames its temp within milliseconds.
inline constexpr double kStaleTempSeconds = 300.0;

/// Removes the temp files in `dir` (of any target) last written at least
/// `min_age_seconds` ago and returns their paths.  The age gate spares a
/// live writer's temp in a directory other processes write to as well.
std::vector<std::string> sweep_stale_temps(const std::string& dir,
                                           double min_age_seconds);

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_ATOMIC_FILE_HPP
