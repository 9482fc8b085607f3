// Process-memory observability helpers.
//
// The getrusage RSS high-water read shared by the Runner
// (SweepSummary::peak_rss_kb) and the heartbeat writer.  The value is a
// process-wide monotone high-water mark, not a per-scope measurement:
// sampling it after a replicate bounds the peak footprint of everything up
// to and including that replicate.
#ifndef GEOGOSSIP_OBS_MEMORY_HPP
#define GEOGOSSIP_OBS_MEMORY_HPP

#include <cstdint>

namespace geogossip::obs {

/// Max resident set size of this process in KiB (ru_maxrss), or 0 when
/// the platform cannot report it.  Monotone over the process lifetime.
std::uint64_t max_rss_kb() noexcept;

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_MEMORY_HPP
