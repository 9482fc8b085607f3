// Unit + property tests for geometry: vectors, rectangles, grids, the
// paper's subsquare-count rule, the bucket index and the partition
// hierarchy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "geometry/grid.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/rect.hpp"
#include "geometry/sampling.hpp"
#include "geometry/spatial_index.hpp"
#include "geometry/vec2.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::geometry {
namespace {

// ----------------------------------------------------------------- Vec2 ----

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(Vec2(3.0, 4.0).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4.0 + 9.0));
  EXPECT_DOUBLE_EQ(distance_sq(a, b), 13.0);
}

// ----------------------------------------------------------------- Rect ----

TEST(Rect, HalfOpenMembership) {
  const Rect r({0.0, 0.0}, {1.0, 1.0});
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({0.999, 0.5}));
  EXPECT_FALSE(r.contains({1.0, 0.5}));
  EXPECT_FALSE(r.contains({0.5, 1.0}));
  EXPECT_TRUE(r.contains_closed({1.0, 1.0}));
  EXPECT_FALSE(r.contains_closed({1.0001, 0.5}));
}

TEST(Rect, GeometryAccessors) {
  const Rect r({1.0, 2.0}, {3.0, 6.0});
  EXPECT_DOUBLE_EQ(r.width(), 2.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 8.0);
  EXPECT_EQ(r.center(), Vec2(2.0, 4.0));
  EXPECT_THROW(Rect({1.0, 0.0}, {0.0, 1.0}), ArgumentError);
}

TEST(Rect, SubdivideCoversExactly) {
  // The cells the hierarchy and the decentralized protocol build.
  const Rect r({0.0, 0.0}, {1.0, 1.0});
  std::vector<Rect> cells;
  for (int idx = 0; idx < 16; ++idx) cells.push_back(r.subsquare(idx, 4));
  double total_area = 0.0;
  for (const auto& c : cells) total_area += c.area();
  EXPECT_NEAR(total_area, 1.0, 1e-12);
  // Shared edges are bit-identical (no FP gaps).
  EXPECT_DOUBLE_EQ(cells[0].hi().x, cells[1].lo().x);
  EXPECT_DOUBLE_EQ(cells[0].hi().y, cells[4].lo().y);
  EXPECT_DOUBLE_EQ(cells[15].hi().x, 1.0);
  EXPECT_DOUBLE_EQ(cells[15].hi().y, 1.0);
}

TEST(Rect, SubsquareIndexRoundTrip) {
  const Rect r({0.0, 0.0}, {2.0, 2.0});
  for (int side : {1, 2, 3, 5}) {
    for (int idx = 0; idx < side * side; ++idx) {
      const Vec2 c = r.subsquare(idx, side).center();
      EXPECT_EQ(r.subsquare_index(c, side), idx);
    }
  }
  EXPECT_EQ(r.subsquare_index({5.0, 5.0}, 2), -1);
  // Closed top/right edge points are clamped into the last cell.
  EXPECT_EQ(r.subsquare_index({2.0, 2.0}, 2), 3);
}

// --------------------------------------------------- nearest_even_square ----

TEST(NearestEvenSquare, SmallCases) {
  EXPECT_EQ(nearest_even_square(1.0), 4);     // minimum is (2*1)^2
  EXPECT_EQ(nearest_even_square(4.0), 4);
  EXPECT_EQ(nearest_even_square(9.0), 4);     // |4-9|=5 < |16-9|=7
  EXPECT_EQ(nearest_even_square(11.0), 16);   // |16-11|=5 < |4-11|=7
  EXPECT_EQ(nearest_even_square(16.0), 16);
  EXPECT_EQ(nearest_even_square(26.0), 16);   // |16-26|=10 < |36-26|=10? tie
  EXPECT_EQ(nearest_even_square(100.0), 100); // (2*5)^2
  EXPECT_THROW(nearest_even_square(0.0), ArgumentError);
}

// Property: the result is always (2k)^2 and is at least as close to the
// target as the neighbouring candidates.
class NearestEvenSquareProperty : public ::testing::TestWithParam<double> {};

TEST_P(NearestEvenSquareProperty, IsOptimalEvenSquare) {
  const double target = GetParam();
  const std::int64_t result = nearest_even_square(target);
  const auto root = static_cast<std::int64_t>(std::llround(
      std::sqrt(static_cast<double>(result))));
  EXPECT_EQ(root * root, result);
  EXPECT_EQ(root % 2, 0);
  const double gap = std::abs(static_cast<double>(result) - target);
  for (std::int64_t k = 1; k <= root / 2 + 2; ++k) {
    const double candidate = 4.0 * static_cast<double>(k * k);
    EXPECT_LE(gap, std::abs(candidate - target) + 1e-9)
        << "target=" << target << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, NearestEvenSquareProperty,
                         ::testing::Values(1.0, 3.0, 7.9, 16.0, 23.0, 57.0,
                                           101.5, 444.0, 1024.0, 5000.0));

TEST(PaperSubsquareCount, FollowsRule) {
  // n = 1e6 -> sqrt = 1000 -> nearest even square to 1000 is 1024 = 32^2.
  EXPECT_EQ(paper_subsquare_count(1e6), 1024);
  // m = 1024 -> sqrt = 32 -> nearest even square is 36.
  EXPECT_EQ(paper_subsquare_count(1024.0), 36);
}

// ------------------------------------------------------------- Sampling ----

TEST(Sampling, UniformPointsAreInsideRegion) {
  Rng rng(1);
  const Rect region({-1.0, 2.0}, {1.5, 3.0});
  const auto points = sample_uniform(300, region, rng);
  EXPECT_EQ(points.size(), 300u);
  for (const auto& p : points) EXPECT_TRUE(region.contains(p));
}

TEST(Sampling, JitteredGridCountAndBounds) {
  Rng rng(2);
  const auto points = sample_jittered_grid(37, Rect::unit_square(), rng);
  EXPECT_EQ(points.size(), 37u);
  for (const auto& p : points) {
    EXPECT_TRUE(Rect::unit_square().contains_closed(p));
  }
}

TEST(Sampling, ClusteredStaysInRegionAndClusters) {
  Rng rng(3);
  const auto points =
      sample_clustered(400, Rect::unit_square(), 3, 0.03, rng);
  EXPECT_EQ(points.size(), 400u);
  for (const auto& p : points) {
    EXPECT_TRUE(Rect::unit_square().contains(p));
  }
  // Clustered points have far smaller pairwise-distance spread than uniform.
  const auto uniform = sample_unit_square(400, rng);
  const auto mean_nn = [](const std::vector<Vec2>& pts) {
    double total = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      double best = 1e9;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (i != j) best = std::min(best, distance(pts[i], pts[j]));
      }
      total += best;
    }
    return total / static_cast<double>(pts.size());
  };
  EXPECT_LT(mean_nn(points), mean_nn(uniform));
}

// ----------------------------------------------------------- BucketGrid ----

class BucketGridProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketGridProperty, WithinMatchesBruteForce) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const auto points = sample_unit_square(n, rng);
  const BucketGrid index(points, Rect::unit_square(), 0.11);
  std::vector<std::uint32_t> reused;  // buffer carried across queries

  for (int probe = 0; probe < 25; ++probe) {
    const Vec2 q{rng.next_double(), rng.next_double()};
    const double radius = rng.uniform(0.01, 0.3);
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (distance(points[i], q) <= radius) {
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
    // The CSR build scans with one reused buffer; whatever earlier queries
    // left in it, the count and the prefix are this query's.
    ASSERT_EQ(index.fill_within(q, radius, reused), expected.size())
        << "probe " << probe << " radius " << radius;
    std::vector<std::uint32_t> prefix(
        reused.begin(),
        reused.begin() + static_cast<std::ptrdiff_t>(expected.size()));
    std::sort(prefix.begin(), prefix.end());
    EXPECT_EQ(prefix, expected) << "probe " << probe << " radius " << radius;
  }
}

TEST_P(BucketGridProperty, NearestMatchesBruteForce) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  const auto points = sample_unit_square(n, rng);
  const BucketGrid index(points, Rect::unit_square(), 0.07);

  for (int probe = 0; probe < 50; ++probe) {
    const Vec2 q{rng.next_double(), rng.next_double()};
    const auto got = index.nearest(q);
    ASSERT_TRUE(got.has_value());
    double best = 1e18;
    std::uint32_t best_idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = distance_sq(points[i], q);
      if (d < best) {
        best = d;
        best_idx = static_cast<std::uint32_t>(i);
      }
    }
    EXPECT_EQ(*got, best_idx);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BucketGridProperty,
                         ::testing::Values(1, 5, 50, 500, 2000));

TEST(BucketGrid, PointsInRectMatchesBruteForce) {
  Rng rng(7);
  const auto points = sample_unit_square(800, rng);
  const BucketGrid index(points, Rect::unit_square(), 0.1);
  const Rect query({0.2, 0.3}, {0.55, 0.8});
  auto got = index.points_in_rect(query);
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (query.contains(points[i])) {
      expected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(BucketGrid, RectQueryIncludesClosedRegionBoundary) {
  // The constructor accepts points sitting exactly on the region's closed
  // top/right boundary (contains_closed); rect queries whose edges reach
  // that boundary must report them instead of silently dropping them —
  // regression test for the contains() / contains_closed() mismatch.
  const std::vector<Vec2> points{
      {1.0, 0.5}, {0.5, 1.0}, {1.0, 1.0}, {0.25, 0.25}};
  const BucketGrid index(points, Rect::unit_square(), 0.2);

  auto all = index.points_in_rect(Rect::unit_square());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2, 3}));

  // An edge on the region boundary is closed on that axis only.
  auto right_strip = index.points_in_rect(Rect({0.9, 0.0}, {1.0, 0.9}));
  EXPECT_EQ(right_strip, (std::vector<std::uint32_t>{0}));

  // Interior rects keep the documented half-open semantics.
  EXPECT_TRUE(index.points_in_rect(Rect({0.3, 0.3}, {0.5, 0.5})).empty());
  auto interior = index.points_in_rect(Rect({0.2, 0.2}, {0.3, 0.3}));
  EXPECT_EQ(interior, (std::vector<std::uint32_t>{3}));
}

TEST(BucketGrid, BucketIntrospectionCoversAllPoints) {
  Rng rng(321);
  const auto points = sample_unit_square(400, rng);
  const BucketGrid index(points, Rect::unit_square(), 0.13);
  std::size_t total = 0;
  for (int row = 0; row < index.side(); ++row) {
    for (int col = 0; col < index.side(); ++col) {
      const auto rect = index.bucket_rect(row, col);
      for (const auto idx : index.bucket_entries(row, col)) {
        EXPECT_TRUE(rect.contains(points[idx]) ||
                    rect.contains_closed(points[idx]));
        ++total;
      }
    }
  }
  EXPECT_EQ(total, points.size());
  EXPECT_THROW(index.bucket_entries(-1, 0), ArgumentError);
  EXPECT_THROW(index.bucket_rect(0, index.side()), ArgumentError);
}

TEST(BucketGrid, HugeRadiusReturnsEveryPoint) {
  // A radius of more than INT_MAX cells covers the whole grid; the reach
  // in cells used to overflow its int cast.
  Rng rng(12);
  const auto points = sample_unit_square(90, rng);
  const BucketGrid index(points, Rect::unit_square(), 0.1);
  for (const double radius :
       {1e300, std::numeric_limits<double>::infinity()}) {
    std::vector<std::uint32_t> got;
    got.resize(index.fill_within({0.3, 0.7}, radius, got));
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), points.size()) << "radius " << radius;
    for (std::uint32_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
  }
}

TEST(BucketGrid, SideRuleIsClampedToTheSquareRootOfThePointCount) {
  // floor(extent / cell_size) while that lies in [1, ceil(sqrt(n))] ...
  EXPECT_EQ(BucketGrid::side_for(1.0, 0.1, 1000), 10);
  EXPECT_EQ(BucketGrid::side_for(2.0, 0.3, 1000), 6);
  // ... else the nearer end: the grid keeps O(n) buckets however small
  // the cell, and a side beyond INT_MAX no longer reaches the int cast.
  EXPECT_EQ(BucketGrid::side_for(1.0, 5.0, 1000), 1);
  EXPECT_EQ(BucketGrid::side_for(1.0, 0.1, 0), 1);
  EXPECT_EQ(BucketGrid::side_for(1.0, 0.01, 1000), 32);
  EXPECT_EQ(BucketGrid::side_for(1.0, 1e-300, 100), 10);
  EXPECT_EQ(BucketGrid::side_for(1.0, 1e-300, 101), 11);
}

TEST(BucketGrid, RejectsOutOfRegionPoints) {
  const std::vector<Vec2> points{{2.0, 2.0}};
  EXPECT_THROW(BucketGrid(points, Rect::unit_square(), 0.1), ArgumentError);
}

// ---------------------------------------------------- PartitionHierarchy ----

TEST(Hierarchy, RootHoldsEverything) {
  Rng rng(11);
  const auto points = sample_unit_square(600, rng);
  const PartitionHierarchy h(points, HierarchyConfig{32.0});
  const auto& root = h.square(h.root());
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.members.size(), 600u);
  EXPECT_DOUBLE_EQ(root.expected_occupancy, 600.0);
  EXPECT_GE(h.levels(), 2);
}

TEST(Hierarchy, ChildrenPartitionParentMembers) {
  Rng rng(12);
  const auto points = sample_unit_square(900, rng);
  const PartitionHierarchy h(points, HierarchyConfig{24.0});
  for (std::size_t id = 0; id < h.square_count(); ++id) {
    const auto& sq = h.square(static_cast<int>(id));
    if (sq.is_leaf()) continue;
    std::size_t child_total = 0;
    std::set<std::uint32_t> seen;
    for (const int child : sq.children) {
      const auto& info = h.square(child);
      EXPECT_EQ(info.parent, static_cast<int>(id));
      EXPECT_EQ(info.depth, sq.depth + 1);
      child_total += info.members.size();
      for (const auto m : info.members) {
        EXPECT_TRUE(seen.insert(m).second) << "member in two children";
        EXPECT_TRUE(info.rect.contains(points[m]) ||
                    info.rect.contains_closed(points[m]));
      }
    }
    EXPECT_EQ(child_total, sq.members.size());
  }
}

TEST(Hierarchy, FanOutFollowsPaperRule) {
  Rng rng(13);
  const auto points = sample_unit_square(1024, rng);
  const PartitionHierarchy h(points, HierarchyConfig{16.0});
  const auto& root = h.square(h.root());
  EXPECT_EQ(static_cast<std::int64_t>(root.children.size()),
            paper_subsquare_count(1024.0));  // 36
}

TEST(Hierarchy, LeavesRespectThresholdOrDepthCap) {
  Rng rng(14);
  const auto points = sample_unit_square(2000, rng);
  const HierarchyConfig config{40.0, 3};
  const PartitionHierarchy h(points, config);
  for (const int leaf : h.leaves()) {
    const auto& sq = h.square(leaf);
    EXPECT_TRUE(sq.expected_occupancy <= 40.0 || sq.depth >= 3)
        << "leaf at depth " << sq.depth << " with E#="
        << sq.expected_occupancy;
  }
}

TEST(Hierarchy, RepresentativeIsNearestMemberToCenter) {
  Rng rng(15);
  const auto points = sample_unit_square(500, rng);
  const PartitionHierarchy h(points, HierarchyConfig{30.0});
  for (std::size_t id = 0; id < h.square_count(); ++id) {
    const auto& sq = h.square(static_cast<int>(id));
    if (sq.members.empty()) {
      EXPECT_EQ(sq.representative, -1);
      continue;
    }
    ASSERT_GE(sq.representative, 0);
    const double rep_dist = distance(
        points[static_cast<std::size_t>(sq.representative)],
        sq.rect.center());
    for (const auto m : sq.members) {
      EXPECT_LE(rep_dist, distance(points[m], sq.rect.center()) + 1e-12);
    }
  }
}

TEST(Hierarchy, NodeLevelsFollowPaperRule) {
  Rng rng(16);
  const auto points = sample_unit_square(800, rng);
  const PartitionHierarchy h(points, HierarchyConfig{28.0});
  const int ell = h.levels();
  // Root representative has the top Level.
  const auto& root = h.square(h.root());
  EXPECT_EQ(h.node_level(static_cast<std::uint32_t>(root.representative)),
            ell);
  int level0 = 0;
  for (std::uint32_t node = 0; node < points.size(); ++node) {
    const int level = h.node_level(node);
    EXPECT_GE(level, 0);
    EXPECT_LE(level, ell);
    if (level == 0) {
      ++level0;
      EXPECT_EQ(h.represented_square(node), -1);
    } else {
      const int sq = h.represented_square(node);
      ASSERT_GE(sq, 0);
      EXPECT_EQ(level, ell - h.square(sq).depth);
      EXPECT_EQ(h.square(sq).representative, static_cast<int>(node));
    }
  }
  // The vast majority of sensors are Level 0.
  EXPECT_GT(level0, static_cast<int>(points.size() * 3 / 4));
}

TEST(Hierarchy, LeafOfAndAncestorWalk) {
  Rng rng(17);
  const auto points = sample_unit_square(400, rng);
  const PartitionHierarchy h(points, HierarchyConfig{20.0});
  for (std::uint32_t node = 0; node < points.size(); ++node) {
    const int leaf = h.leaf_of(node);
    ASSERT_GE(leaf, 0);
    const auto& sq = h.square(leaf);
    EXPECT_TRUE(sq.is_leaf());
    EXPECT_NE(std::find(sq.members.begin(), sq.members.end(), node),
              sq.members.end());
    // The parent links the §4.2 machine follows climb one depth per step,
    // through squares that hold the sensor, to the root.
    int id = leaf;
    while (h.square(id).parent >= 0) {
      const int parent = h.square(id).parent;
      EXPECT_EQ(h.square(parent).depth, h.square(id).depth - 1);
      EXPECT_TRUE(h.square(parent).rect.contains_closed(points[node]));
      id = parent;
    }
    EXPECT_EQ(id, h.root());
  }
}

TEST(Hierarchy, ClusteredDeploymentYieldsEmptySquares) {
  Rng rng(19);
  const auto points =
      sample_clustered(600, Rect::unit_square(), 2, 0.02, rng);
  const PartitionHierarchy h(points, HierarchyConfig{30.0});
  EXPECT_GT(h.empty_squares(), 0);  // failure-injection fixture is real
}

TEST(Hierarchy, SummaryMentionsLevels) {
  Rng rng(20);
  const auto points = sample_unit_square(300, rng);
  const PartitionHierarchy h(points, HierarchyConfig{25.0});
  const std::string text = h.summary();
  EXPECT_NE(text.find("levels"), std::string::npos);
  EXPECT_NE(text.find("depth 0"), std::string::npos);
}

}  // namespace
}  // namespace geogossip::geometry
