// Tests for the level profile, the literal paper schedule and the practical
// schedule, plus the closed-form transmission predictions and the per-square
// hop tables of the round-based accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/round_protocol.hpp"
#include "core/schedule.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "obs/telemetry.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::core {
namespace {

// ---------------------------------------------------------- LevelProfile ----

TEST(LevelProfile, FollowsPaperFanOutRule) {
  // n = 1e6: root fan-out = nearest even square of sqrt(1e6) = 1024.
  const auto profile = compute_level_profile(1'000'000, 48.0);
  ASSERT_GE(profile.size(), 3u);
  EXPECT_EQ(profile[0].depth, 0);
  EXPECT_DOUBLE_EQ(profile[0].expected_occupancy, 1e6);
  EXPECT_EQ(profile[0].fan_out, 1024);
  EXPECT_NEAR(profile[1].expected_occupancy, 1e6 / 1024.0, 1e-9);
  // Depth grows ~ log log n: for n = 1e6 expect 3-4 levels, not 10.
  EXPECT_LE(profile.size(), 5u);
  // The last level is a leaf.
  EXPECT_EQ(profile.back().fan_out, 0);
  EXPECT_LE(profile.back().expected_occupancy, 48.0);
}

TEST(LevelProfile, SmallNIsLeafOnly) {
  const auto profile = compute_level_profile(30, 48.0);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].fan_out, 0);
}

TEST(LevelProfile, DepthCapIsRespected) {
  const auto profile = compute_level_profile(1'000'000, 2.0, 2);
  EXPECT_LE(profile.size(), 3u);  // depths 0, 1, 2
}

TEST(LevelProfile, DepthGrowsVerySlowlyWithN) {
  const auto d1 = compute_level_profile(1u << 12, 32.0).size();
  const auto d2 = compute_level_profile(1u << 24, 32.0).size();
  EXPECT_LE(d2, d1 + 2);  // doubling the exponent adds O(1) levels
}

// --------------------------------------------------------- PaperSchedule ----

TEST(PaperSchedule, EpsAndDeltaShrinkAsSpecified) {
  const auto profile = compute_level_profile(100'000, 48.0);
  const auto schedule = make_paper_schedule(100'000, 1e-3, 1e-2, 1.0, profile);
  ASSERT_EQ(schedule.eps.size(), profile.size());
  for (std::size_t r = 1; r < schedule.eps.size(); ++r) {
    // eps_{r} = eps_{r-1} / (25 n^{4.5}) for a=1; the quantities span
    // hundreds of orders of magnitude, so compare in log10.
    const double log_ratio =
        std::log10(schedule.eps[r - 1]) - std::log10(schedule.eps[r]);
    EXPECT_NEAR(log_ratio, std::log10(25.0) + 4.5 * 5.0, 1e-6);
    // delta_{r+1} = delta_r / n^(2 a r): the r = 0 step is the identity
    // (n^0), so delta_1 == delta_0; it shrinks strictly afterwards.
    if (r == 1) {
      EXPECT_DOUBLE_EQ(schedule.delta[r], schedule.delta[r - 1]);
    } else {
      EXPECT_LT(schedule.delta[r], schedule.delta[r - 1]);
    }
  }
}

TEST(PaperSchedule, TimeBudgetsGrowTowardsTheRoot) {
  const auto profile = compute_level_profile(1'000'000, 48.0);
  const auto schedule =
      make_paper_schedule(1'000'000, 1e-3, 1e-2, 1.0, profile);
  for (std::size_t r = 1; r < schedule.log10_time.size(); ++r) {
    EXPECT_GT(schedule.log10_time[r - 1], schedule.log10_time[r]);
  }
  // The literal budgets are astronomic — that is the point of reporting
  // them (and of the practical substitution).
  EXPECT_GT(schedule.log10_time[0], 20.0);
  EXPECT_NE(schedule.to_string().find("depth 0"), std::string::npos);
}

TEST(PaperSchedule, Validation) {
  const auto profile = compute_level_profile(1000, 48.0);
  EXPECT_THROW(make_paper_schedule(1000, 0.0, 0.5, 1.0, profile),
               ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 1.5, 1.0, profile),
               ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 0.5, 0.0, profile),
               ArgumentError);
  EXPECT_THROW(make_paper_schedule(1000, 0.5, 0.5, 1.0, {}), ArgumentError);
}

// ----------------------------------------------------- PracticalSchedule ----

TEST(PracticalSchedule, RoundsFollowObservationOne) {
  const auto profile = compute_level_profile(65536, 48.0);
  const auto schedule = make_practical_schedule(1e-3, profile);
  ASSERT_EQ(schedule.rounds.size(), profile.size());
  for (std::size_t r = 0; r < profile.size(); ++r) {
    if (profile[r].fan_out == 0) {
      EXPECT_EQ(schedule.rounds[r], 0u);
      continue;
    }
    const double k = profile[r].fan_out;
    const double expected =
        std::ceil(kInnerRoundConstant * k * std::log(k / schedule.eps[r]));
    EXPECT_EQ(schedule.rounds[r], static_cast<std::uint32_t>(expected));
  }
  EXPECT_NE(schedule.to_string().find("rounds"), std::string::npos);
}

TEST(PracticalSchedule, EpsDecaysGeometrically) {
  const auto profile = compute_level_profile(65536, 48.0);
  const auto schedule = make_practical_schedule(1e-2, profile);
  for (std::size_t r = 1; r < schedule.eps.size(); ++r) {
    EXPECT_NEAR(schedule.eps[r - 1] / schedule.eps[r], kEpsDecay, 1e-9);
  }
}

TEST(PracticalSchedule, Validation) {
  const auto profile = compute_level_profile(1000, 48.0);
  EXPECT_THROW(make_practical_schedule(2.0, profile), ArgumentError);
}

TEST(InnerRounds, RejectAnAccuracyThatUnderflows) {
  // The schedule divides by kEpsDecay per level: a small enough eps
  // reaches 0 at some depth, and ln(k / 0) is infinite.
  const double eps_r = eps_at_depth(1e-320, 8);
  ASSERT_EQ(eps_r, 0.0);
  EXPECT_THROW(inner_rounds(4, eps_r), ArgumentError);
  EXPECT_EQ(inner_rounds(4, eps_at_depth(1e-2, 1)),
            static_cast<std::uint32_t>(std::ceil(4.0 * std::log(4e3))));
}

TEST(CeilToCount, AcceptsExactlyTheUint32Range) {
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(ceil_to_count(0.2, "rounds"), 1u);
  EXPECT_EQ(ceil_to_count(static_cast<double>(kMax), "rounds"), kMax);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {static_cast<double>(kMax) + 1.0, inf, nan, -1.0}) {
    EXPECT_THROW(ceil_to_count(bad, "rounds"), ArgumentError) << bad;
  }
}

// ------------------------------------------------------------ Predictions ----

TEST(Predictions, OrderingAtLargeN) {
  // At large n the paper's n^(1+o(1)) must sit below Dimakis' n^1.5,
  // which sits below Boyd's n^2 (equal constants).  Boyd dominates Dimakis
  // already at n = 10^4; the paper's (log n/eps)^(log log n) factor keeps
  // its curve above Dimakis' at small n, so that half of the ordering is
  // checked only from n = 2^26 on.
  for (const double n : {1e4, 1e6, 1e8, 0x1p26, 1e10, 1e12, 1e14}) {
    const auto size = static_cast<std::size_t>(n);
    const double boyd = boyd_predicted_transmissions(size, 1e-3, 1.0);
    const double dimakis = dimakis_predicted_transmissions(size, 1e-3, 1.0);
    EXPECT_LT(dimakis, boyd) << "n=" << n;
    if (n < 0x1p26) continue;
    EXPECT_LT(narayanan_predicted_transmissions(size, 1e-3, 1.0), dimakis)
        << "n=" << n;
  }
}

TEST(Predictions, NarayananExponentApproachesOne) {
  // Fitted local exponent d log T / d log n falls towards 1 as n grows.
  const auto local_exponent = [](std::size_t n) {
    const double t1 = narayanan_predicted_transmissions(n, 1e-3, 1.0);
    const double t2 = narayanan_predicted_transmissions(2 * n, 1e-3, 1.0);
    return std::log2(t2 / t1);
  };
  const double at_small = local_exponent(1 << 12);
  const double at_large = local_exponent(1 << 30);
  EXPECT_LT(at_large, at_small);
  EXPECT_LT(at_large, 1.5);
  EXPECT_GT(at_large, 1.0);
}

TEST(Predictions, Validation) {
  EXPECT_THROW(narayanan_predicted_transmissions(2, 1e-3, 1.0),
               ArgumentError);
  EXPECT_THROW(narayanan_predicted_transmissions(100, 2.0, 1.0),
               ArgumentError);
}

// --------------------------------------------------- round accounting ----

TEST(ExchangeBeta, ModesProduceDocumentedGains) {
  EXPECT_DOUBLE_EQ(exchange_beta(BetaMode::kExpected, 100.0, 90, 110), 40.0);
  // Harmonic mean of (90, 110) = 99.0; beta = 2/5 * 99.
  EXPECT_NEAR(exchange_beta(BetaMode::kActualHarmonic, 100.0, 90, 110),
              0.4 * (2.0 * 90.0 * 110.0 / 200.0), 1e-12);
  EXPECT_DOUBLE_EQ(exchange_beta(BetaMode::kConvexRep, 100.0, 90, 110), 0.5);
  EXPECT_THROW(exchange_beta(BetaMode::kExpected, 100.0, 0, 10),
               ArgumentError);
}

TEST(ChargedLeafCost, ModelsScaleAsDocumented) {
  // GRG-mixing: linear in m when the square is ~1 radius across.
  const auto linear_small =
      charged_leaf_cost(LeafCostModel::kGrgMixing, 32, 1.0, 1e-3);
  const auto linear_large =
      charged_leaf_cost(LeafCostModel::kGrgMixing, 64, 1.0, 1e-3);
  EXPECT_GT(linear_large, linear_small);
  EXPECT_LT(linear_large, 3 * linear_small);  // ~2x plus the log factor

  // Quadratic model: 2x members -> ~4x cost.
  const auto quad_small =
      charged_leaf_cost(LeafCostModel::kQuadratic, 32, 1.0, 1e-3);
  const auto quad_large =
      charged_leaf_cost(LeafCostModel::kQuadratic, 64, 1.0, 1e-3);
  EXPECT_GT(quad_large, 3 * quad_small);
  EXPECT_LT(quad_large, 5 * quad_small);

  // Side/radius ratio quadratically inflates the mixing model.
  const auto wide = charged_leaf_cost(LeafCostModel::kGrgMixing, 32, 4.0, 1e-3);
  EXPECT_NEAR(static_cast<double>(wide) / linear_small, 16.0, 1.0);

  // Single node costs nothing.
  EXPECT_EQ(charged_leaf_cost(LeafCostModel::kGrgMixing, 1, 1.0, 1e-3), 0u);
}

// ------------------------------------------------------- SquareHopTables ----

TEST(SquareHopTables, EqualDirectRoutingWithTheStraightLineFallback) {
  // The point set of GeometricGraph.SubThresholdRadiusDisconnects, at a
  // radius still below the connectivity threshold: some greedy routes
  // between representatives dead-end and are charged the fallback.
  Rng rng(34);
  const auto points = geometry::sample_unit_square(1000, rng);
  const graph::GeometricGraph g(points, 0.6 * graph::threshold_radius(1000));
  const geometry::PartitionHierarchy hierarchy(
      g.points(), g.region(), practical_hierarchy(8.0, 12));
  SquareHopTables tables(g, hierarchy);

  std::size_t arrived = 0;
  std::size_t fell_back = 0;
  const auto direct_hops = [&](int square_a, int square_b) {
    const auto a =
        static_cast<graph::NodeId>(hierarchy.square(square_a).representative);
    const auto b =
        static_cast<graph::NodeId>(hierarchy.square(square_b).representative);
    const auto [from, to] = std::minmax(a, b);
    const auto route = routing::route_to_node(g, from, to);
    if (route.arrived()) {
      ++arrived;
      return std::uint64_t{route.hops};
    }
    ++fell_back;
    const double dist = geometry::distance(g.position(from), g.position(to));
    return route.hops +
           static_cast<std::uint64_t>(std::ceil(dist / g.radius()));
  };

  for (std::size_t id = 0; id < hierarchy.square_count(); ++id) {
    const int square = static_cast<int>(id);
    // Slots: the children with a representative, in arena order.
    std::vector<int> expected_slots;
    for (const int child : hierarchy.square(square).children) {
      if (hierarchy.square(child).representative >= 0) {
        expected_slots.push_back(child);
      }
    }
    const auto slots = tables.slots(square);
    ASSERT_TRUE(std::equal(slots.begin(), slots.end(), expected_slots.begin(),
                           expected_slots.end()))
        << "square " << square;

    std::uint64_t fan_out = 0;
    for (const int child : slots) fan_out += direct_hops(square, child);
    EXPECT_EQ(tables.fan_out_hops(square), fan_out) << "square " << square;

    for (std::size_t i = 0; i < slots.size(); ++i) {
      for (std::size_t j = i + 1; j < slots.size(); ++j) {
        const std::uint64_t hops = direct_hops(slots[i], slots[j]);
        EXPECT_EQ(tables.sibling_hops(square, i, j), hops)
            << "square " << square << " slots " << i << ", " << j;
        EXPECT_EQ(tables.sibling_hops(square, j, i), hops);
      }
    }
  }
  EXPECT_GT(arrived, 0u);
  EXPECT_GT(fell_back, 0u);
  EXPECT_THROW(tables.sibling_hops(hierarchy.root(), 0, 0), CheckError);
}

TEST(SquareHopTables, TinyRadiusCapsTheStraightLineFallback) {
  // At r = 1e-12 every route dead-ends where it starts, and the fallback
  // ceil(distance / r) overflowed its uint32 cast; it is capped at 2^32 - 2.
  Rng rng(37);
  const auto points = geometry::sample_unit_square(100, rng);
  const graph::GeometricGraph g(points, 1e-12);
  const geometry::PartitionHierarchy hierarchy(
      g.points(), g.region(), practical_hierarchy(8.0, 12));
  SquareHopTables tables(g, hierarchy);
  const int root = hierarchy.root();
  const auto slots = tables.slots(root);
  std::size_t far_pairs = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const auto a = static_cast<graph::NodeId>(
          hierarchy.square(slots[i]).representative);
      const auto b = static_cast<graph::NodeId>(
          hierarchy.square(slots[j]).representative);
      // ceil(distance / r) exceeds 2^32 once the distance passes 0.0043.
      if (geometry::distance(g.position(a), g.position(b)) < 0.01) continue;
      ++far_pairs;
      EXPECT_EQ(tables.sibling_hops(root, i, j), UINT32_MAX - 1);
    }
  }
  EXPECT_GT(far_pairs, 0u);
}

#if !defined(GEOGOSSIP_OBS_DISABLE)
TEST(SquareHopTables, RouteAnInnerSquaresWholeTableOnItsFirstMiss) {
  // An inner square's first lookup routes all k (k - 1) / 2 pairs of its
  // slots and later lookups there route nothing; the root's table is
  // routed one entry per first use.  Counted by the routing.routes tap.
  Rng rng(36);
  const auto g = graph::GeometricGraph::sample(2048, 1.2, rng);
  const geometry::PartitionHierarchy hierarchy(
      g.points(), g.region(), practical_hierarchy(8.0, 12));
  SquareHopTables tables(g, hierarchy);
  const int root = hierarchy.root();
  ASSERT_GE(tables.slots(root).size(), 3u);
  int inner = -1;
  for (std::size_t id = 0; id < hierarchy.square_count(); ++id) {
    const int square = static_cast<int>(id);
    if (square != root && tables.slots(square).size() >= 3) {
      inner = square;
      break;
    }
  }
  ASSERT_GE(inner, 0);
  const std::uint64_t k = tables.slots(inner).size();

  obs::reset();
  obs::set_enabled(true);
  std::uint64_t seen = 0;
  const auto new_routes = [&] {
    obs::set_enabled(false);
    const auto counters = obs::snapshot().counters;
    const auto found = counters.find("routing.routes");
    const std::uint64_t total = found == counters.end() ? 0 : found->second;
    obs::set_enabled(true);
    return total - std::exchange(seen, total);
  };
  (void)tables.sibling_hops(inner, k - 1, 0);
  EXPECT_EQ(new_routes(), k * (k - 1) / 2);
  (void)tables.sibling_hops(inner, 1, 2);
  EXPECT_EQ(new_routes(), 0u);
  (void)tables.sibling_hops(root, 0, 1);
  EXPECT_EQ(new_routes(), 1u);
  (void)tables.sibling_hops(root, 2, 1);
  EXPECT_EQ(new_routes(), 1u);
  (void)tables.sibling_hops(root, 1, 0);
  EXPECT_EQ(new_routes(), 0u);
  obs::set_enabled(false);
  obs::reset();
}
#endif

TEST(Names, EnumsHaveStableNames) {
  EXPECT_EQ(leaf_cost_model_name(LeafCostModel::kGrgMixing), "grg-mixing");
  EXPECT_EQ(leaf_cost_model_name(LeafCostModel::kQuadratic), "quadratic");
  EXPECT_EQ(beta_mode_name(BetaMode::kExpected), "expected(2E#/5)");
  EXPECT_EQ(beta_mode_name(BetaMode::kConvexRep), "convex(1/2)");
}

}  // namespace
}  // namespace geogossip::core
