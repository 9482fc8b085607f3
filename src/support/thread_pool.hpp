// Work-stealing thread pool for fanning independent batches of work out
// across std::thread workers.  The experiment runner is its library
// caller; it stays in support/ because perfbench's drivers include it by
// this path.
//
// The pool is batch-oriented: run() seeds every task index into per-worker
// deques round-robin, workers pop from the back of their own deque and steal
// from the front of a victim's when theirs drains.  Tasks never enqueue new
// tasks, so a worker that finds every deque empty can exit — no condition
// variables or shutdown protocol needed.  Determinism of experiment results
// is the runner's job (each task writes to its own result slot and seeds its
// own Rng); the pool only promises that every index in [0, task_count) runs
// exactly once.  run() keeps no state between calls, so nested use (a task
// that itself runs a pool) is safe — it merely oversubscribes threads.
#ifndef GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
#define GEOGOSSIP_SUPPORT_THREAD_POOL_HPP

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
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
  /// until all tasks finish.  With an effective single worker everything
  /// runs inline on the caller.  The first exception thrown by any task is
  /// rethrown after the batch drains; the remaining tasks still run.
  void run(std::size_t task_count,
           const std::function<void(std::size_t)>& body) const {
    GG_CHECK_ARG(static_cast<bool>(body), "ThreadPool::run: body required");
    if (task_count == 0) return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, task_count));
    if (workers <= 1) {
      // Same exception contract as the threaded path: the batch drains,
      // the first failure rethrows at the end.
      std::exception_ptr first_error;
      for (std::size_t i = 0; i < task_count; ++i) {
        try {
          body(i);
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
      return;
    }

    struct Queue {
      std::mutex mu;
      std::deque<std::size_t> tasks;
    };
    std::vector<Queue> queues(workers);
    // Round-robin seeding spreads neighbouring sweep cells (often similar
    // cost) across workers, so stealing is the exception, not the rule.
    for (std::size_t i = 0; i < task_count; ++i) {
      queues[i % workers].tasks.push_back(i);
    }

    std::mutex error_mu;
    std::exception_ptr first_error;

    const auto worker = [&](unsigned self) {
      for (;;) {
        std::size_t task = 0;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(queues[self].mu);
          if (!queues[self].tasks.empty()) {
            task = queues[self].tasks.back();
            queues[self].tasks.pop_back();
            found = true;
          }
        }
        for (unsigned offset = 1; offset < workers && !found; ++offset) {
          Queue& victim = queues[(self + offset) % workers];
          std::lock_guard<std::mutex> lock(victim.mu);
          if (!victim.tasks.empty()) {
            task = victim.tasks.front();
            victim.tasks.pop_front();
            found = true;
          }
        }
        if (!found) return;
        try {
          body(task);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  unsigned threads_;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
