#include "routing/route_lanes.hpp"

#include <bit>
#include <chrono>

#include "support/check.hpp"

namespace geogossip::routing {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kStop = ~std::uint64_t{0};

/// An idle lane polls for the next batch this long before it blocks.
/// Batches of a running replicate arrive microseconds apart, so lanes
/// stay awake through a run; a pause (snapshot write, end of run) puts
/// them to sleep.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

/// The caller routes an entry itself once a lane has held it this long:
/// far above one route's cost, so only a lane that lost its CPU trips it.
constexpr auto kStallWindow = std::chrono::microseconds(100);

/// Polls between clock reads in the timed waits above.
constexpr unsigned kPollsPerClockRead = 64;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

bool same_bits(geometry::Vec2 a, geometry::Vec2 b) noexcept {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) ==
             std::bit_cast<std::uint64_t>(b.y);
}

}  // namespace

RouteLanes::RouteLanes(const graph::GeometricGraph& graph, unsigned lanes,
                       std::size_t capacity)
    : graph_(&graph),
      capacity_(capacity),
      batch_count_(std::size_t{lanes} + 1),
      batches_(std::make_unique<Batch[]>(batch_count_)) {
  for (std::size_t b = 0; b < batch_count_; ++b) {
    batches_[b].slots = std::make_unique<Slot[]>(capacity);
  }
  // The mirror's one-time build (and its trace span) stays on the
  // caller's thread instead of landing on whichever lane routes first.
  graph.ensure_routing_mirror();
  try {
    for (unsigned lane = 1; lane < lanes; ++lane) {
      threads_.emplace_back([this] { lane_main(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

RouteLanes::~RouteLanes() {
  retire();
  stop();
}

void RouteLanes::stop() noexcept {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    open_.store(kStop);
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
}

void RouteLanes::publish(graph::NodeId source,
                         std::span<const geometry::Vec2> targets) {
  GG_CHECK_ARG(targets.size() <= capacity_,
               "RouteLanes::publish: batch exceeds capacity");
  retire();
  // An idle batch always exists (see Batch), but a lane passing through
  // one can make it look busy for a moment: scan until one reads idle.
  ++epoch_;
  std::size_t index = epoch_ % batch_count_;
  while (batches_[index].active.load() != 0) {
    index = (index + 1) % batch_count_;
    cpu_relax();
  }
  Batch& batch = batches_[index];
  batch.source = source;
  batch.count = static_cast<std::uint32_t>(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    batch.slots[k].target = targets[k];
    batch.slots[k].error = nullptr;
    batch.slots[k].done.store(false, std::memory_order_relaxed);
  }
  batch.next.store(0, std::memory_order_relaxed);
  current_ = &batch;
  matching_ = true;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    open_.store(epoch_ * batch_count_ + index);
  }
  wake_.notify_all();
}

std::optional<RouteResult> RouteLanes::take(std::size_t k,
                                            graph::NodeId source,
                                            geometry::Vec2 target) {
  if (current_ == nullptr || !matching_) return std::nullopt;
  Batch& batch = *current_;
  if (k >= batch.count || source != batch.source ||
      !same_bits(batch.slots[k].target, target)) {
    matching_ = false;
    batch.next.store(batch.count, std::memory_order_relaxed);
    return std::nullopt;
  }
  const Slot& slot = batch.slots[k];
  Clock::time_point waiting_since{};
  for (unsigned polls = 0; !slot.done.load(std::memory_order_acquire);) {
    if (route_next(batch)) continue;
    // Entry k is a lane's, still in flight.
    cpu_relax();
    if (++polls % kPollsPerClockRead != 0) continue;
    const auto now = Clock::now();
    if (waiting_since == Clock::time_point{}) {
      waiting_since = now;
    } else if (now - waiting_since > kStallWindow) {
      RouteOptions options;
      options.report = false;
      return route_to_position(*graph_, source, target, options);
    }
  }
  if (slot.error) std::rethrow_exception(slot.error);
  return slot.route;
}

void RouteLanes::retire() {
  if (current_ == nullptr) return;
  current_->next.store(current_->count, std::memory_order_relaxed);
  current_ = nullptr;
  // Handshake with lane_main (both sides seq_cst): this thread closes the
  // batch here and later reads its active count before writing it again;
  // a lane bumps the count, then re-reads open_.  Either the lane sees the
  // close and touches no slot, or this thread sees the lane and leaves the
  // batch alone until it has gone.
  open_.store(0);
}

bool RouteLanes::route_next(Batch& batch) {
  std::uint32_t k = batch.next.load(std::memory_order_relaxed);
  do {
    if (k >= batch.count) return false;
  } while (
      !batch.next.compare_exchange_weak(k, k + 1, std::memory_order_relaxed));
  Slot& slot = batch.slots[k];
  try {
    RouteOptions options;
    options.report = false;
    slot.route = route_to_position(*graph_, batch.source, slot.target,
                                   options);
  } catch (...) {
    slot.error = std::current_exception();
  }
  slot.done.store(true, std::memory_order_release);
  return true;
}

std::uint64_t RouteLanes::await_batch(std::uint64_t seen) {
  const auto ready = [seen](std::uint64_t tag) {
    return tag == kStop || (tag != 0 && tag != seen);
  };
  const auto deadline = Clock::now() + kSpinWindow;
  for (unsigned polls = 1;; ++polls) {
    const std::uint64_t tag = open_.load(std::memory_order_acquire);
    if (ready(tag)) return tag;
    cpu_relax();
    if (polls % kPollsPerClockRead == 0 && Clock::now() >= deadline) break;
  }
  std::unique_lock<std::mutex> lock(sleep_mu_);
  std::uint64_t tag = 0;
  wake_.wait(lock, [&] {
    tag = open_.load();
    return ready(tag);
  });
  return tag;
}

void RouteLanes::lane_main() noexcept {
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t tag = await_batch(seen);
    if (tag == kStop) return;
    seen = tag;
    Batch& batch = batches_[tag % batch_count_];
    batch.active.fetch_add(1);
    if (open_.load() == tag) {
      while (route_next(batch)) {
      }
    }
    batch.active.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace geogossip::routing
