// Bounded retry with exponential backoff and jitter for transient I/O.
//
// Durable-state writers (heartbeat commits, fleet lease renewals, snapshot
// files: every atomic_write_file) run on shared — sometimes networked —
// filesystems where a single flush or rename can fail transiently (NFS
// hiccup, momentary ENOSPC, overloaded metadata server).  Failing the
// whole sweep on the first such blip wastes hours of work; retrying
// forever hides a dead mount.  retry_io is the shared middle ground: a
// bounded number of attempts with exponentially growing, jittered sleeps,
// then a LOUD give-up (IoError) the caller cannot miss.
//
// Jitter decorrelates the retry schedules of fleet workers hammering one
// shared directory — without it, k workers that failed together retry
// together, forever.  Jitter affects only WHEN an attempt runs, never the
// bytes it writes, so determinism of results is untouched.
#ifndef GEOGOSSIP_SUPPORT_RETRY_HPP
#define GEOGOSSIP_SUPPORT_RETRY_HPP

#include <chrono>
#include <functional>
#include <random>
#include <string>
#include <thread>

#include "support/check.hpp"
#include "support/logging.hpp"

namespace geogossip {

struct RetryPolicy {
  /// Total attempts (first try included); must be >= 1.
  int max_attempts = 5;
  double initial_backoff_seconds = 0.01;
  double multiplier = 2.0;
  double max_backoff_seconds = 1.0;
  /// Each sleep is scaled by a uniform draw from [1-j, 1+j].
  double jitter_fraction = 0.25;
  /// Sleep hook; tests inject a recorder, production uses sleep_for.
  /// Leave empty for the default.
  std::function<void(double seconds)> sleeper;
};

namespace detail {

inline void retry_sleep(const RetryPolicy& policy, double seconds) {
  if (policy.sleeper) {
    policy.sleeper(seconds);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

inline double jittered(double seconds, double jitter_fraction) {
  if (jitter_fraction <= 0.0) return seconds;
  // Timing-only randomness: seeded per thread from random_device, never
  // from the experiment seed streams (results must not depend on it).
  thread_local std::mt19937 rng{std::random_device{}()};
  std::uniform_real_distribution<double> scale(1.0 - jitter_fraction,
                                               1.0 + jitter_fraction);
  return seconds * scale(rng);
}

}  // namespace detail

/// Runs `attempt` until it returns true, sleeping between failures per the
/// policy.  Gives up by throwing IoError("<what>: ... after N attempts")
/// once max_attempts all returned false.  `attempt` signals a transient
/// failure by returning false; anything it throws propagates immediately
/// (a permanent error should not be retried).
template <typename Fn>
void retry_io(const RetryPolicy& policy, std::string_view what,
              Fn&& attempt) {
  GG_CHECK_ARG(policy.max_attempts >= 1,
               "retry_io: max_attempts must be >= 1");
  double backoff = policy.initial_backoff_seconds;
  for (int tried = 1; tried <= policy.max_attempts; ++tried) {
    if (attempt()) return;
    if (tried == policy.max_attempts) break;
    log_warn(what, ": transient failure (attempt ", tried, " of ",
             policy.max_attempts, "), retrying");
    detail::retry_sleep(policy,
                        detail::jittered(backoff, policy.jitter_fraction));
    backoff = std::min(backoff * policy.multiplier,
                       policy.max_backoff_seconds);
  }
  throw IoError(std::string(what) + ": still failing after " +
                std::to_string(policy.max_attempts) + " attempts — giving up");
}

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_RETRY_HPP
