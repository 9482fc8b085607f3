// Speculative greedy routing of one batch of position targets on helper
// threads ("route lanes").
//
// A caller that knows which targets it will probably route next, in which
// order, publishes them as a batch.  The lanes claim the entries in index
// order and route each one unreported (RouteOptions::report = false);
// the caller then takes the results in the same order, helping to route
// unclaimed entries while it waits.  A route is a pure function of
// (graph, source, target), so a taken result is bit-identical to routing
// inline, and only the caller decides which results count: it reports
// the routes it commits to (report_route) and drops the rest.
//
// The caller never waits on a stalled lane (one whose CPU was taken
// away mid-route): it routes a long-awaited entry itself, and a batch a
// lane still occupies is left to it while the next batch goes to an idle
// one.  Lanes spin for a short window after a batch so back-to-back
// batches start without a wake-up, then block until the next publish.
#ifndef GEOGOSSIP_ROUTING_ROUTE_LANES_HPP
#define GEOGOSSIP_ROUTING_ROUTE_LANES_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "geometry/vec2.hpp"
#include "graph/geometric_graph.hpp"
#include "routing/greedy.hpp"

namespace geogossip::routing {

class RouteLanes {
 public:
  /// `lanes` counts the calling thread: lanes - 1 helper threads start
  /// here.  The graph's routing mirror is built first, on the calling
  /// thread.  Batches hold at most `capacity` targets.
  RouteLanes(const graph::GeometricGraph& graph, unsigned lanes,
             std::size_t capacity);
  /// Stops and joins every helper thread.
  ~RouteLanes();
  RouteLanes(const RouteLanes&) = delete;
  RouteLanes& operator=(const RouteLanes&) = delete;

  /// Opens a batch routing `targets` from `source`, retiring the previous
  /// one first.  Requires targets.size() <= capacity.
  void publish(graph::NodeId source, std::span<const geometry::Vec2> targets);

  /// The route of entry k when the open batch holds exactly (source,
  /// target) there, bit for bit.  Otherwise nullopt, and the batch takes
  /// no new claims: the caller's later targets will not match either, and
  /// it routes them inline.  Rethrows what routing entry k threw.
  std::optional<RouteResult> take(std::size_t k, graph::NodeId source,
                                  geometry::Vec2 target);

  /// Closes the open batch to new claims.  Routes already claimed finish
  /// in the background; their results are dropped.
  void retire();

 private:
  struct alignas(64) Slot {
    geometry::Vec2 target;
    RouteResult route;
    std::exception_ptr error;
    std::atomic<bool> done{false};
  };

  /// One batch's entries.  The caller writes a batch only while no lane
  /// is inside it; lanes + 1 batches leave one idle even when every
  /// helper still occupies another.
  struct Batch {
    graph::NodeId source = 0;
    std::uint32_t count = 0;
    std::unique_ptr<Slot[]> slots;
    /// Next unclaimed entry; claims advance it by CAS while it is below
    /// count, and closing stores count.
    std::atomic<std::uint32_t> next{0};
    /// Lanes inside the batch (see lane_main()).
    std::atomic<std::uint32_t> active{0};
  };

  /// Claims the next unclaimed entry of `batch` and routes it; false
  /// when none is left.
  bool route_next(Batch& batch);
  /// Blocks until a batch other than `seen` is open, or stop; returns its
  /// tag.
  std::uint64_t await_batch(std::uint64_t seen);
  void lane_main() noexcept;
  /// Wakes and joins every helper thread.
  void stop() noexcept;

  const graph::GeometricGraph* graph_;
  std::size_t capacity_;
  std::size_t batch_count_;
  std::unique_ptr<Batch[]> batches_;

  // Caller-only state.
  Batch* current_ = nullptr;
  bool matching_ = false;
  std::uint64_t epoch_ = 0;

  /// Tag of the open batch, epoch * batch_count_ + index; 0 while none
  /// is open, kStop to shut down.  Stored under sleep_mu_ whenever the
  /// store may wake a lane.
  std::atomic<std::uint64_t> open_{0};

  /// Lanes past their spin window sleep on wake_.
  std::mutex sleep_mu_;
  std::condition_variable wake_;

  // Declared last: started after, and joined before, everything above.
  std::vector<std::thread> threads_;
};

}  // namespace geogossip::routing

#endif  // GEOGOSSIP_ROUTING_ROUTE_LANES_HPP
