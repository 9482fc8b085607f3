// Tests for the bounded-retry helper (src/support/retry.hpp): attempt
// counting, the exponential backoff schedule with its cap, jitter bounds,
// the loud give-up, and immediate propagation of non-transient errors.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "support/check.hpp"
#include "support/retry.hpp"

namespace geogossip {
namespace {

/// Policy whose sleeps are recorded instead of slept, so tests assert the
/// schedule without wall-clock time.
RetryPolicy recording_policy(std::vector<double>* sleeps,
                             double jitter_fraction = 0.0) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.01;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 0.05;
  policy.jitter_fraction = jitter_fraction;
  policy.sleeper = [sleeps](double seconds) { sleeps->push_back(seconds); };
  return policy;
}

TEST(Retry, FirstTrySuccessNeverSleeps) {
  std::vector<double> sleeps;
  int attempts = 0;
  retry_io(recording_policy(&sleeps), "op", [&] {
    ++attempts;
    return true;
  });
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(Retry, BacksOffExponentiallyUpToTheCap) {
  std::vector<double> sleeps;
  int attempts = 0;
  retry_io(recording_policy(&sleeps), "op", [&] {
    return ++attempts == 5;  // four transient failures, then success
  });
  EXPECT_EQ(attempts, 5);
  // 0.01, 0.02, 0.04, then capped at 0.05 — never the uncapped 0.08.
  ASSERT_EQ(sleeps.size(), 4u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.01);
  EXPECT_DOUBLE_EQ(sleeps[1], 0.02);
  EXPECT_DOUBLE_EQ(sleeps[2], 0.04);
  EXPECT_DOUBLE_EQ(sleeps[3], 0.05);
}

TEST(Retry, GivesUpLoudlyAfterMaxAttempts) {
  std::vector<double> sleeps;
  int attempts = 0;
  try {
    retry_io(recording_policy(&sleeps), "flaky-sink", [&] {
      ++attempts;
      return false;
    });
    FAIL() << "retry_io must throw after exhausting its attempts";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("flaky-sink"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("5 attempts"),
              std::string::npos);
  }
  EXPECT_EQ(attempts, 5);
  // No sleep after the final attempt: giving up is immediate.
  EXPECT_EQ(sleeps.size(), 4u);
}

TEST(Retry, JitterStaysWithinTheConfiguredBand) {
  std::vector<double> sleeps;
  auto policy = recording_policy(&sleeps, 0.25);
  policy.max_attempts = 2;
  for (int round = 0; round < 64; ++round) {
    int attempts = 0;
    retry_io(policy, "op", [&] { return ++attempts == 2; });
  }
  ASSERT_EQ(sleeps.size(), 64u);
  for (const double s : sleeps) {
    EXPECT_GE(s, 0.01 * 0.75);
    EXPECT_LE(s, 0.01 * 1.25);
  }
}

TEST(Retry, NonTransientExceptionsPropagateWithoutRetrying) {
  std::vector<double> sleeps;
  int attempts = 0;
  EXPECT_THROW(retry_io(recording_policy(&sleeps), "op",
                        [&]() -> bool {
                          ++attempts;
                          throw std::logic_error("permanent");
                        }),
               std::logic_error);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(Retry, RejectsAZeroAttemptPolicy) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(retry_io(policy, "op", [] { return true; }), ArgumentError);
}

}  // namespace
}  // namespace geogossip
