// Batch thread pool for fanning independent tasks out across std::thread
// workers.  The experiment runner is its library caller; it stays in
// support/ because perfbench's drivers include it by this path.
//
// run() starts min(threads, tasks) - 1 threads; they and the caller take
// task indices from one shared atomic counter until the batch runs out.
// Tasks are coarse (a replicate each, milliseconds to minutes), so one
// fetch_add per task is all the scheduling they need.  Determinism of
// experiment results is the runner's job (each task writes to its own
// result slot and seeds its own Rng); the pool only promises that every
// index in [0, task_count) runs exactly once.  run() keeps no state between
// calls, so nested use (a task that itself runs a pool) is safe — it merely
// oversubscribes threads.
#ifndef GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
#define GEOGOSSIP_SUPPORT_THREAD_POOL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace geogossip {

class ThreadPool {
 public:
  /// threads == 0 selects the hardware concurrency.
  explicit ThreadPool(unsigned threads = 0) noexcept
      : threads_(threads == 0 ? hardware_threads() : threads) {}

  unsigned thread_count() const noexcept { return threads_; }

  static unsigned hardware_threads() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Runs body(i) exactly once for every i in [0, task_count) and blocks
  /// until all tasks finish.  With a single worker the caller runs them in
  /// index order.  The first exception thrown by any task is rethrown
  /// after the batch drains; the remaining tasks still run.
  void run(std::size_t task_count,
           const std::function<void(std::size_t)>& body) const {
    GG_CHECK_ARG(static_cast<bool>(body), "ThreadPool::run: body required");
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    const auto worker = [&] {
      for (std::size_t task = next++; task < task_count; task = next++) {
        try {
          body(task);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };

    const std::size_t workers = std::min<std::size_t>(threads_, task_count);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
    } catch (const std::system_error&) {
      // A thread the system would not start leaves its tasks to the
      // workers that did start; every one of them is joined below.
    }
    worker();
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  unsigned threads_;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
