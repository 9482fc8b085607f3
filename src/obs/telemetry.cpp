#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace geogossip::obs {

namespace {

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/// Per-thread recording state.  Single writer (the owning thread); read by
/// snapshot()/reset() only while writers are quiescent, per the header
/// contract.  The event buffer is allocated on the first recorded event,
/// so threads that never record while telemetry is on cost nothing.
struct ThreadState {
  std::vector<Event> events;  ///< size() == capacity once allocated
  std::size_t count = 0;      ///< events stored (<= events.size())
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> counters;  ///< indexed by CounterId
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mu;
  /// Shared ownership with each thread's TLS slot: buffers of exited
  /// threads stay readable until reset() — an exported trace must include
  /// events from pool workers that were joined before the export.
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::uint32_t next_tid = 1;  // 0 is kSyntheticTid
  std::size_t capacity = kDefaultRingCapacity;
  std::vector<std::string> counter_names;  // CounterId -> name
  std::map<std::string, CounterId, std::less<>> counter_ids;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

ThreadState& thread_state() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    s->tid = r.next_tid++;
    r.threads.push_back(s);
    return s;
  }();
  return *state;
}

}  // namespace

#if !defined(GEOGOSSIP_OBS_DISABLE)
void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
#endif

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            const char* key_a, std::int64_t arg_a, const char* key_b,
            std::int64_t arg_b, std::uint32_t tid_override,
            bool use_override) {
  ThreadState& state = thread_state();
  if (state.events.empty()) {
    // First event on this thread: allocate the buffer once, off the
    // steady-state path.  A capacity of zero (tests probing the drop
    // accounting) leaves it empty and every event counts as dropped.
    std::size_t capacity;
    {
      Registry& r = registry();
      std::lock_guard<std::mutex> lock(r.mu);
      capacity = r.capacity;
    }
    state.events.resize(capacity);
  }
  if (state.count >= state.events.size()) {
    ++state.dropped;  // full: drop, never block or reallocate
    return;
  }
  Event& event = state.events[state.count++];
  event.name = name;
  event.key_a = key_a;
  event.key_b = key_b;
  event.arg_a = arg_a;
  event.arg_b = arg_b;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.tid = use_override ? tid_override : state.tid;
}

void counter_add_slow(std::uint32_t id, std::uint64_t value) {
  ThreadState& state = thread_state();
  if (id >= state.counters.size()) {
    // Sized to the full registered set, so later counters registered
    // before the hot phase never trigger another growth here.
    std::size_t registered;
    {
      Registry& r = registry();
      std::lock_guard<std::mutex> lock(r.mu);
      registered = r.counter_names.size();
    }
    state.counters.resize(std::max<std::size_t>(registered, id + 1), 0);
  }
  state.counters[id] += value;
}

}  // namespace detail

CounterId counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counter_ids.find(name);
  if (it != r.counter_ids.end()) return it->second;
  const auto id = static_cast<CounterId>(r.counter_names.size());
  r.counter_names.emplace_back(name);
  r.counter_ids.emplace(std::string(name), id);
  return id;
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::uint64_t> totals(r.counter_names.size(), 0);
  for (const auto& state : r.threads) {
    snap.events.insert(snap.events.end(), state->events.begin(),
                       state->events.begin() +
                           static_cast<std::ptrdiff_t>(state->count));
    snap.dropped_events += state->dropped;
    for (std::size_t i = 0;
         i < state->counters.size() && i < totals.size(); ++i) {
      totals[i] += state->counters[i];
    }
  }
  std::sort(snap.events.begin(), snap.events.end(),
            [](const Event& a, const Event& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  for (std::size_t i = 0; i < totals.size(); ++i) {
    snap.counters.emplace(r.counter_names[i], totals[i]);
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& state : r.threads) {
    state->count = 0;
    state->dropped = 0;
    std::fill(state->counters.begin(), state->counters.end(), 0);
  }
}

void set_ring_capacity(std::size_t events_per_thread) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.capacity = events_per_thread;
  for (const auto& state : r.threads) {
    if (!state->events.empty() || events_per_thread == 0) {
      state->events.assign(events_per_thread, Event{});
      state->count = std::min(state->count, events_per_thread);
    }
  }
}

}  // namespace geogossip::obs
