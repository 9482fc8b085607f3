// Tests for the O(1) incremental convergence tracking: DeviationTracker
// drift bounds, the ValueProtocol update API, the periodic exact-refresh
// cadence, and the engine's per-tick check semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/affine.hpp"
#include "gossip/base.hpp"
#include "gossip/pairwise.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/deviation_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/neumaier.hpp"
#include "support/rng.hpp"

namespace geogossip {
namespace {

double exact_deviation_sq(const std::vector<double>& x) {
  const double norm = sim::deviation_norm(x);
  return norm * norm;
}

TEST(NeumaierSum, CompensatesCancellation) {
  NeumaierSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 2.0);  // naive summation returns 0
}

TEST(DeviationTracker, MatchesExactRecomputationOnSmallUpdates) {
  Rng rng(41);
  std::vector<double> x(64);
  for (double& v : x) v = rng.normal();
  sim::DeviationTracker tracker;
  tracker.reset(x);
  EXPECT_NEAR(tracker.deviation_sq(), exact_deviation_sq(x), 1e-12);

  for (int step = 0; step < 1000; ++step) {
    const std::size_t i = rng.below(x.size());
    const double next = rng.normal();
    tracker.update(x[i], next);
    x[i] = next;
  }
  const double exact = exact_deviation_sq(x);
  EXPECT_NEAR(tracker.deviation_sq(), exact, 1e-9 * exact);
}

// Satellite requirement: >= 10^6 updates with the incremental norm staying
// within a tight relative tolerance of the exact recomputation.
TEST(DeviationTracker, MillionUpdateDriftStaysTight) {
  Rng rng(42);
  std::vector<double> x(512);
  for (double& v : x) v = rng.normal();
  sim::DeviationTracker tracker;
  tracker.reset(x);

  std::vector<std::uint32_t> ids(x.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;

  constexpr int kUpdates = 1'200'000;
  for (int step = 1; step <= kUpdates; ++step) {
    if (step % 3 == 0) {
      // Sum-conserving pair average through the fast path.
      const std::size_t i = rng.below(x.size());
      const std::size_t j = rng.below_excluding(x.size(), i);
      const double average = 0.5 * (x[i] + x[j]);
      tracker.update_conserving_pair(x[i], x[j], average, average);
      x[i] = average;
      x[j] = average;
    } else if (step % 6 == 1) {
      // Bulk average of 2..48 distinct elements (a partial Fisher-Yates
      // shuffle picks them), as leaf and path averaging apply it.
      const std::size_t k = 2 + rng.below(47);
      for (std::size_t m = 0; m < k; ++m) {
        std::swap(ids[m], ids[m + rng.below(ids.size() - m)]);
      }
      tracker.apply_average(x, std::span<const std::uint32_t>(ids).first(k));
    } else {
      // Generic update random-walks one element so the field never
      // collapses and the comparison stays well-conditioned.
      const std::size_t i = rng.below(x.size());
      const double next = x[i] + 0.25 * rng.normal();
      tracker.update(x[i], next);
      x[i] = next;
    }
    if (step % 100'000 == 0) {
      const double exact = exact_deviation_sq(x);
      ASSERT_GT(exact, 0.0);
      EXPECT_NEAR(tracker.deviation_sq(), exact, 1e-8 * exact)
          << "after " << step << " updates";
    }
  }
}

TEST(DeviationTracker, NanPropagatesInsteadOfReportingConvergence) {
  std::vector<double> x{1.0, -1.0};
  sim::DeviationTracker tracker;
  tracker.reset(x);
  tracker.update(x[0], std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(tracker.deviation_sq()));
}

// Exposes the protected update API for direct testing.
class ScriptedProtocol final : public gossip::ValueProtocol {
 public:
  using ValueProtocol::ValueProtocol;
  using ValueProtocol::apply_affine_jump;
  using ValueProtocol::apply_average;
  using ValueProtocol::apply_pair_average;
  using ValueProtocol::set_value;

  std::string_view name() const override { return "scripted"; }
  void on_tick(const sim::Tick&) override {}
};

TEST(ValueProtocol, UpdateApiTracksDeviationAndConservesSum) {
  Rng rng(43);
  const auto graph = graph::GeometricGraph::sample(128, 2.0, rng);
  auto x0 = sim::gaussian_field(128, rng);
  ScriptedProtocol protocol(graph, x0, rng);
  const double sum0 = protocol.value_sum();

  std::vector<graph::NodeId> group{1, 5, 9, 21, 40};
  for (int round = 0; round < 2000; ++round) {
    const auto a = static_cast<graph::NodeId>(rng.below(128));
    const auto b = static_cast<graph::NodeId>(rng.below_excluding(128, a));
    protocol.apply_pair_average(a, b);
    protocol.apply_affine_jump(a, b, 1.7);  // non-convex, sum-preserving
    protocol.apply_average(group);
  }
  const double exact = exact_deviation_sq(
      {protocol.values().begin(), protocol.values().end()});
  EXPECT_NEAR(protocol.deviation_sq(), exact, 1e-9 * (exact + 1e-30));
  EXPECT_NEAR(protocol.value_sum(), sum0, 1e-9);

  // set_value is tracked too (and may change the sum).
  protocol.set_value(7, 123.456);
  const double exact2 = exact_deviation_sq(
      {protocol.values().begin(), protocol.values().end()});
  EXPECT_NEAR(protocol.deviation_sq(), exact2, 1e-9 * exact2);
}

TEST(ValueProtocol, AffineJumpIsTheMirroredUpdateWithEqualGains) {
  // The jump every affine protocol applies is DESIGN.md §5's A with
  // a_i = a_j = beta, and its tracked deviation stays exact.
  Rng rng(45);
  const auto graph = graph::GeometricGraph::sample(64, 2.0, rng);
  ScriptedProtocol protocol(graph, sim::gaussian_field(64, rng), rng);
  for (const double beta : {0.05, 1.0 / 3.0, 0.5, 0.9, 1.3, 1.95}) {
    const auto a = static_cast<graph::NodeId>(rng.below(64));
    const auto b = static_cast<graph::NodeId>(rng.below_excluding(64, a));
    double want_a = protocol.values()[a];
    double want_b = protocol.values()[b];
    core::affine_pair_update(want_a, want_b, beta, beta);
    protocol.apply_affine_jump(a, b, beta);
    EXPECT_NEAR(protocol.values()[a], want_a, 1e-12 * std::abs(want_a))
        << "beta " << beta;
    EXPECT_NEAR(protocol.values()[b], want_b, 1e-12 * std::abs(want_b))
        << "beta " << beta;
    const double exact = exact_deviation_sq(
        {protocol.values().begin(), protocol.values().end()});
    EXPECT_NEAR(protocol.deviation_sq(), exact, 1e-12 * exact)
        << "beta " << beta;
  }
}

TEST(ValueProtocol, RefreshCadenceIsHonored) {
  Rng rng(44);
  const auto graph = graph::GeometricGraph::sample(64, 2.0, rng);
  ScriptedProtocol protocol(graph, sim::gaussian_field(64, rng), rng);
  protocol.set_tracker_refresh_interval(100);
  EXPECT_EQ(protocol.tracker_refresh_interval(), 100u);
  EXPECT_EQ(protocol.tracker_refreshes(), 0u);

  // 500 pair averages = 1000 element updates = exactly 10 refreshes.
  for (int i = 0; i < 500; ++i) protocol.apply_pair_average(0, 1);
  EXPECT_EQ(protocol.tracker_refreshes(), 10u);

  EXPECT_THROW(protocol.set_tracker_refresh_interval(0), ArgumentError);
}

TEST(Engine, PerTickChecksReportExactConvergenceTick) {
  // Convergence is tested after every tick, so the reported tick is the
  // first that meets epsilon: the same run one tick shorter must not.
  const auto run_with_budget = [](std::uint64_t max_ticks) {
    Rng rng(46);
    const auto graph = graph::GeometricGraph::sample(200, 2.0, rng);
    auto x0 = sim::gaussian_field(200, rng);
    sim::center_and_normalize(x0);
    gossip::PairwiseGossip protocol(graph, x0, rng);
    sim::RunConfig config;
    config.epsilon = 1e-2;
    config.max_ticks = max_ticks;
    return sim::run_to_epsilon(protocol, rng, config);
  };
  const auto exact = run_with_budget(10'000'000);
  ASSERT_TRUE(exact.converged);
  const auto one_short = run_with_budget(exact.ticks - 1);
  EXPECT_FALSE(one_short.converged);
  EXPECT_EQ(one_short.ticks, exact.ticks - 1);
  EXPECT_GT(one_short.final_error, 1e-2);
}

}  // namespace
}  // namespace geogossip
