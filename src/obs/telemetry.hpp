// Pay-for-use telemetry: spans, events and named counters (README.md,
// "Observability").
//
// The subsystem is built for hours-long unattended sweeps: instrumentation
// points stay in the binary permanently and cost one branch on a cached
// relaxed-atomic flag while telemetry is off (the default).  When enabled,
// spans append fixed-size POD events to a preallocated thread-local buffer
// — no locks, no allocation on the hot path; a full buffer DROPS the event
// and counts the drop instead of blocking or reallocating.  Counters are
// plain per-thread uint64 cells merged by exact integer addition, so their
// totals are bit-identical at any thread count.
//
// Compile-time kill switch: building with -DGEOGOSSIP_OBS_DISABLE (CMake
// option GEOGOSSIP_OBS=OFF) turns enabled() into `constexpr false`, which
// lets the optimizer delete every instrumentation point outright — the API
// below stays callable either way, so call sites never #ifdef.
//
// Threading contract: recording is safe from any thread.  snapshot(),
// reset() and set_ring_capacity() require recording threads to be
// quiescent (the Runner exports after its pool has drained; tests follow
// suit).  Buffers of exited threads are retained until reset().
#ifndef GEOGOSSIP_OBS_TELEMETRY_HPP
#define GEOGOSSIP_OBS_TELEMETRY_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip::obs {

/// One recorded span/event.  Names and arg keys are static strings — the
/// buffer never owns heap memory per event.
struct Event {
  const char* name = nullptr;
  const char* key_a = nullptr;  ///< optional first arg name (nullptr = none)
  const char* key_b = nullptr;  ///< optional second arg name
  std::int64_t arg_a = 0;
  std::int64_t arg_b = 0;
  std::uint64_t start_ns = 0;  ///< steady-clock, see now_ns()
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;  ///< recorder's lane (kSyntheticTid for envelopes)
};

/// Lane id used for synthetic envelope spans (per-cell envelopes the
/// Runner derives after the pool drains) so they render as their own
/// track in Perfetto instead of fighting a worker thread's nesting.
inline constexpr std::uint32_t kSyntheticTid = 0;

namespace detail {
inline std::atomic<bool> g_enabled{false};

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            const char* key_a, std::int64_t arg_a, const char* key_b,
            std::int64_t arg_b, std::uint32_t tid_override,
            bool use_override);
void counter_add_slow(std::uint32_t id, std::uint64_t value);
}  // namespace detail

/// The runtime master switch, read relaxed: every disabled span/counter
/// call reduces to this one branch.
#if defined(GEOGOSSIP_OBS_DISABLE)
constexpr bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
#else
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;
#endif

/// Monotonic timestamp in nanoseconds (steady clock — never wall time, so
/// spans are immune to NTP steps during an overnight sweep).
std::uint64_t now_ns() noexcept;

/// RAII span: records [construction, destruction) on the calling thread
/// when telemetry is enabled at construction time.  `name` and arg keys
/// must have static storage duration (string literals).
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) open(name, nullptr, 0, nullptr, 0);
  }
  Span(const char* name, const char* key_a, std::int64_t arg_a) {
    if (enabled()) open(name, key_a, arg_a, nullptr, 0);
  }
  Span(const char* name, const char* key_a, std::int64_t arg_a,
       const char* key_b, std::int64_t arg_b) {
    if (enabled()) open(name, key_a, arg_a, key_b, arg_b);
  }
  ~Span() {
    if (name_ != nullptr) {
      detail::record(name_, start_ns_, now_ns(), key_a_, arg_a_, key_b_,
                     arg_b_, 0, false);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, const char* key_a, std::int64_t arg_a,
            const char* key_b, std::int64_t arg_b) {
    name_ = name;
    key_a_ = key_a;
    arg_a_ = arg_a;
    key_b_ = key_b;
    arg_b_ = arg_b;
    start_ns_ = now_ns();
  }

  const char* name_ = nullptr;
  const char* key_a_ = nullptr;
  const char* key_b_ = nullptr;
  std::int64_t arg_a_ = 0;
  std::int64_t arg_b_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Records a span with explicit timestamps on an explicit lane — the
/// escape hatch for synthetic envelope spans (e.g. a cell span covering
/// the min..max of its replicates' recorded times).  No-op when disabled.
inline void record_span_on(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns, const char* key_a,
                           std::int64_t arg_a, const char* key_b,
                           std::int64_t arg_b,
                           std::uint32_t tid = kSyntheticTid) {
  if (!enabled()) return;
  detail::record(name, start_ns, end_ns, key_a, arg_a, key_b, arg_b, tid,
                 true);
}

// ----------------------------------------------------------- counters ----

/// Stable id of a named counter.  Registration is idempotent (same name →
/// same id) and cheap enough for function-local statics at the call site:
///   static const auto c_hops = obs::counter("routing.hops");
using CounterId = std::uint32_t;
CounterId counter(std::string_view name);

/// Adds `value` to the calling thread's cell for `id`.  Totals are merged
/// by exact uint64 addition, so sweep-wide counter values are
/// bit-identical at any thread count.
inline void add(CounterId id, std::uint64_t value = 1) {
  if (!enabled()) return;
  detail::counter_add_slow(id, value);
}

// ----------------------------------------------- snapshot / lifecycle ----

/// Everything recorded so far, merged across threads.  Events are sorted
/// by (start_ns, tid); counters carry every registered name (zeros
/// included, so consumers see a stable key set).
struct Snapshot {
  std::vector<Event> events;
  std::uint64_t dropped_events = 0;
  std::map<std::string, std::uint64_t> counters;
};

/// Merges all thread buffers.  Requires recording threads to be quiescent.
Snapshot snapshot();

/// Zeroes every buffer and counter cell (registrations are kept).
/// Requires quiescence; primarily for tests.
void reset();

/// Per-thread event-buffer capacity.  Setting it resizes existing buffers
/// (quiescence required) and applies to threads yet to record.
void set_ring_capacity(std::size_t events_per_thread);

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_TELEMETRY_HPP
