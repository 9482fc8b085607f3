// Unit + property tests for the graph module: CSR, G(n,r) construction,
// connectivity, radius helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/csr.hpp"
#include "graph/geometric_graph.hpp"
#include "graph/radius.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::graph {
namespace {

using geometry::Vec2;

// ------------------------------------------------------------------ CSR ----

TEST(Csr, FromEdgesBasics) {
  const auto g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  const auto nbrs = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Csr, DegreeStats) {
  const auto g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 6.0 / 4.0);
}

TEST(Csr, RejectsBadEdges) {
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 0}}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 5}}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 1}, {1, 0}}), ArgumentError);
}

TEST(Csr, FromAdjacencyValidatesSymmetry) {
  const std::vector<std::vector<NodeId>> good{{1}, {0, 2}, {1}};
  const auto g = CsrGraph::from_adjacency(good);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  const std::vector<std::vector<NodeId>> asymmetric{{1}, {}};
  EXPECT_THROW(CsrGraph::from_adjacency(asymmetric), ArgumentError);
  const std::vector<std::vector<NodeId>> self_loop{{0}};
  EXPECT_THROW(CsrGraph::from_adjacency(self_loop), ArgumentError);
}

TEST(Csr, FromPartsAcceptsValidLayoutAndRejectsBrokenOnes) {
  // 0-1, 1-2 as a hand-laid CSR.
  const auto g = CsrGraph::from_parts({0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));

  EXPECT_THROW(CsrGraph::from_parts({}, {}), ArgumentError);
  // offsets must start at 0 and end at targets.size().
  EXPECT_THROW(CsrGraph::from_parts({1, 2}, {0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2}, {1}), ArgumentError);
  // non-monotone offsets / unsorted row / duplicate / self-loop / range.
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 1, 4}, {1, 2, 0, 0}),
               ArgumentError);
  // Non-monotone with an interior offset PAST targets.size(): must be
  // rejected without ever forming an out-of-bounds row iterator.
  EXPECT_THROW(CsrGraph::from_parts({0, 5, 2, 2}, {1, 0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 3, 4}, {2, 1, 0, 0}),
               ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 2, 2}, {1, 1}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 1, 2}, {0, 0}), ArgumentError);
  EXPECT_THROW(CsrGraph::from_parts({0, 1, 2}, {5, 0}), ArgumentError);
}

TEST(Csr, NodeCountCeilingIsExplicit) {
  // NodeId is 32-bit: n >= 2^32 must be rejected with a clear error, not
  // silently truncated.  The check itself is cheap and allocation-free.
  EXPECT_NO_THROW(CsrGraph::check_node_count(CsrGraph::max_node_count()));
  EXPECT_THROW(CsrGraph::check_node_count(std::uint64_t{1} << 32),
               ArgumentError);
  EXPECT_THROW(CsrGraph::check_node_count((std::uint64_t{1} << 32) + 7),
               ArgumentError);
  // The graph builders fail before allocating anything n-sized.
  Rng rng(7);
  EXPECT_THROW(
      GeometricGraph::sample(std::size_t{1} << 32, 2.0, rng),
      ArgumentError);
}

TEST(Csr, EmptyGraph) {
  const auto g = CsrGraph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
}

// --------------------------------------------------------- Connectivity ----

TEST(Connectivity, ComponentsOnKnownGraph) {
  // Two triangles plus an isolated node.
  const auto g = CsrGraph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[6], labels[0]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(largest_component_size(g), 3u);
}

TEST(Connectivity, PathGraphDistancesAndDiameter) {
  const auto g = CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, SingletonIsConnected) {
  const auto g = CsrGraph::from_edges(1, {});
  EXPECT_TRUE(is_connected(g));
}

// --------------------------------------------------------------- Radius ----

TEST(Radius, FormulasAndMonotonicity) {
  EXPECT_NEAR(threshold_radius(1000),
              std::sqrt(std::log(1000.0) / (std::numbers::pi * 1000.0)),
              1e-12);
  EXPECT_GT(paper_radius(1000), threshold_radius(1000));
  EXPECT_GT(paper_radius(1000), paper_radius(10000));  // shrinks with n
  EXPECT_NEAR(expected_interior_degree(1000, paper_radius(1000)),
              std::numbers::pi * 4.0 * std::log(1000.0), 1e-9);
  EXPECT_DOUBLE_EQ(expected_route_hops(1.0, 0.25), 4.0);
  EXPECT_THROW(paper_radius(1), ArgumentError);
}

// -------------------------------------------------------- GeometricGraph ----

/// Checks every pair of g's nodes against the definition: an edge iff the
/// points are within distance r (closed ball), and no self-loops.
void expect_edges_match_brute_force(const GeometricGraph& g) {
  const auto& points = g.points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_FALSE(g.adjacency().has_edge(static_cast<NodeId>(i),
                                        static_cast<NodeId>(i)))
        << "self-loop at " << i;
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const bool close =
          geometry::distance(points[i], points[j]) <= g.radius();
      EXPECT_EQ(g.adjacency().has_edge(static_cast<NodeId>(i),
                                       static_cast<NodeId>(j)),
                close)
          << "pair (" << i << ',' << j << ')';
    }
  }
}

class GrgProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrgProperty, EdgesMatchBruteForceDistanceCheck) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  const auto points = geometry::sample_unit_square(n, rng);
  expect_edges_match_brute_force(GeometricGraph(points, paper_radius(n, 1.5)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GrgProperty,
                         ::testing::Values(2, 10, 64, 200));

TEST(GeometricGraph, SampleIsConnectedAtPaperRadius) {
  // Multiplier 2 keeps moderate deployments connected in essentially every
  // seed (DESIGN.md); verify across several seeds.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const auto g = GeometricGraph::sample(800, 2.0, rng);
    EXPECT_TRUE(is_connected(g.adjacency())) << "seed " << seed;
  }
}

TEST(GeometricGraph, NearestNodeMatchesBruteForce) {
  Rng rng(31);
  const auto g = GeometricGraph::sample(300, 2.0, rng);
  for (int probe = 0; probe < 40; ++probe) {
    const Vec2 q{rng.next_double(), rng.next_double()};
    const NodeId got = g.nearest_node(q);
    double best = 1e18;
    NodeId expected = 0;
    for (NodeId i = 0; i < g.node_count(); ++i) {
      const double d = geometry::distance_sq(g.position(i), q);
      if (d < best) {
        best = d;
        expected = i;
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(GeometricGraph, DegreeNearExpectedInterior) {
  Rng rng(32);
  const std::size_t n = 3000;
  const auto g = GeometricGraph::sample(n, 2.0, rng);
  const double expected = expected_interior_degree(n, g.radius());
  // Mean degree is below the interior expectation (boundary effects) but
  // within a factor ~0.7..1.0.
  EXPECT_GT(g.adjacency().mean_degree(), 0.6 * expected);
  EXPECT_LT(g.adjacency().mean_degree(), 1.05 * expected);
}

TEST(GeometricGraph, SummaryIsInformative) {
  Rng rng(33);
  const auto g = GeometricGraph::sample(100, 2.0, rng);
  const std::string text = g.summary();
  EXPECT_NE(text.find("G(n=100"), std::string::npos);
  EXPECT_NE(text.find("edges"), std::string::npos);
}

TEST(GeometricGraph, HugeRadiusBuildsTheCompleteGraph) {
  // A radius of more than INT_MAX grid cells; the reach in cells used to
  // overflow its int cast, and the build threw std::length_error.
  Rng rng(34);
  const auto points = geometry::sample_unit_square(60, rng);
  const GeometricGraph g(points, 1e300);
  EXPECT_EQ(g.adjacency().edge_count(), 60u * 59u / 2u);
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 59u);
  expect_edges_match_brute_force(g);
}

TEST(GeometricGraph, Validation) {
  EXPECT_THROW(GeometricGraph({}, 0.1), ArgumentError);
  EXPECT_THROW(GeometricGraph({{0.5, 0.5}}, 0.0), ArgumentError);
  Rng rng(1);
  EXPECT_THROW(GeometricGraph::sample(1, 2.0, rng), ArgumentError);
}

// ---------------------------------------- one-scan build / lazy mirror ----

/// Full structural equality of two graphs built from the same points:
/// CSR offsets + per-node neighbour lists, then (after forcing both
/// mirrors) the routing-ordered ids and annuli and the bound table, byte
/// for byte.
void expect_identical_graphs(const GeometricGraph& a,
                             const GeometricGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.adjacency().edge_count(), b.adjacency().edge_count());
  const auto offsets_a = a.adjacency().offsets();
  const auto offsets_b = b.adjacency().offsets();
  ASSERT_TRUE(std::equal(offsets_a.begin(), offsets_a.end(),
                         offsets_b.begin(), offsets_b.end()));
  a.ensure_routing_mirror();
  b.ensure_routing_mirror();
  const auto bounds_a = a.routing_bounds();
  const auto bounds_b = b.routing_bounds();
  ASSERT_TRUE(std::equal(bounds_a.begin(), bounds_a.end(), bounds_b.begin(),
                         bounds_b.end()));
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "node " << v;
    const auto ia = a.routing_ids(v);
    const auto ib = b.routing_ids(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "routing ids of node " << v;
    const auto aa = a.routing_annuli(v);
    const auto ab = b.routing_annuli(v);
    ASSERT_TRUE(std::equal(aa.begin(), aa.end(), ab.begin(), ab.end()))
        << "routing annuli of node " << v;
  }
}

TEST(GeometricGraph, ClusteredAndCoincidentPointsMatchBruteForce) {
  // Raw constructor (no spatial renumbering, so the grid's visit order is
  // NOT presorted and the build exercises its per-row sort), clustered and
  // coincident points included.  The cluster's rows outgrow the target
  // array the build reserves at the expected interior degree.
  Rng rng(91);
  auto points = geometry::sample_unit_square(500, rng);
  for (std::size_t i = 0; i < 60; ++i) {  // a dense cluster
    points.push_back({0.5 + 1e-4 * static_cast<double>(i % 8), 0.5});
  }
  const double r = paper_radius(points.size(), 1.5);
  expect_edges_match_brute_force(GeometricGraph(points, r));
}

/// Checks the routing mirror against its definition (routing_ids()): the
/// kRoutingAnnuli annuli have outer edges r * (K - a) / K for a = 0..K-1,
/// an arc belongs to the innermost annulus whose edge it does not exceed,
/// and the bound table gives each annulus that edge rounded up to float.
/// The definition is evaluated here by a linear scan, independently of the
/// fill's search.
void expect_mirror_matches_definition(const GeometricGraph& g) {
  constexpr int kAnnuli = GeometricGraph::kRoutingAnnuli;
  double edge_sq[kAnnuli];
  float bound[kAnnuli];
  for (int a = 0; a < kAnnuli; ++a) {
    const double edge = g.radius() * (kAnnuli - a) / kAnnuli;
    edge_sq[a] = edge * edge;
    bound[a] = static_cast<float>(edge);
    if (static_cast<double>(bound[a]) < edge) {
      bound[a] = std::nextafter(bound[a], std::numeric_limits<float>::max());
    }
  }
  const auto bounds = g.routing_bounds();
  for (int a = 0; a < kAnnuli; ++a) {
    EXPECT_EQ(bounds[static_cast<std::size_t>(a)], bound[a]) << "annulus " << a;
  }
  const auto positions = g.positions();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto csr = g.neighbors(v);
    const auto ids = g.routing_ids(v);
    const auto annuli = g.routing_annuli(v);
    ASSERT_EQ(ids.size(), csr.size()) << "node " << v;
    ASSERT_EQ(annuli.size(), csr.size()) << "node " << v;

    // The CSR row regrouped farthest annulus first, CSR order kept inside
    // each annulus: a permutation of the row.
    std::vector<std::pair<int, NodeId>> expected;
    for (const NodeId u : csr) {
      const double d_sq = geometry::distance_sq(positions[v], positions[u]);
      int annulus = 0;
      for (int a = 1; a < kAnnuli; ++a) {
        if (d_sq <= edge_sq[a]) annulus = a;
      }
      expected.emplace_back(annulus, u);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });

    for (std::size_t k = 0; k < ids.size(); ++k) {
      const auto [annulus, id] = expected[k];
      ASSERT_EQ(ids[k], id) << "node " << v << " entry " << k;
      // The arc sits in the innermost annulus whose edge it does not
      // exceed ...
      ASSERT_EQ(static_cast<int>(annuli[k]), annulus)
          << "node " << v << " entry " << k;
      const double d_sq = geometry::distance_sq(positions[v], positions[id]);
      const double b = bounds[annuli[k]];
      // ... whose bound covers the arc (b * b is exact in double) ...
      EXPECT_GE(b * b, d_sq) << "node " << v << " entry " << k;
      // ... and the bounds never increase along the row.
      if (k > 0) {
        EXPECT_LE(bounds[annuli[k]], bounds[annuli[k - 1]])
            << "node " << v << " entry " << k;
      }
    }
  }
}

TEST(GeometricGraph, RoutingMirrorMatchesItsDefinition) {
  // Neighbours planted exactly on every annulus edge.  The dyadic centre
  // and radius make each offset, coordinate and squared distance exact,
  // so an arc of length r * (32 - a) / 32 lands on edge a itself (and in
  // annulus a, the edges being closed).  Nudged copies sit just inside and
  // just outside each edge, and coincident points give zero-length arcs.
  constexpr double kCentre = 0.5;
  constexpr double kRadius = 0.125;
  constexpr int kAnnuli = GeometricGraph::kRoutingAnnuli;
  std::vector<Vec2> points{{kCentre, kCentre}, {kCentre, kCentre}};
  for (int a = 0; a < kAnnuli; ++a) {
    const double edge = kRadius * (kAnnuli - a) / kAnnuli;
    points.push_back({kCentre + edge, kCentre});
    points.push_back({kCentre, kCentre - edge});
    points.push_back({std::nextafter(kCentre - edge, 0.0), kCentre});
    points.push_back({kCentre, std::nextafter(kCentre + edge, 1.0)});
    const double diagonal = edge / std::sqrt(2.0);
    points.push_back({kCentre + diagonal, kCentre + diagonal});
  }
  const GeometricGraph planted(points, kRadius);
  // The centre reaches every planted point except the nudged-outside ones
  // of edge 0, which lie beyond r.
  EXPECT_GE(planted.degree(0), static_cast<std::size_t>(5 * kAnnuli - 2));
  expect_mirror_matches_definition(planted);

  Rng rng(77);
  expect_mirror_matches_definition(GeometricGraph::sample(2000, 1.5, rng));
}

TEST(GeometricGraph, RoutingMirrorIsLazyAndEagerOptionForcesIt) {
  Rng rng_lazy(55);
  Rng rng_eager(55);
  const auto lazy = GeometricGraph::sample(400, 2.0, rng_lazy);
  const auto eager = GeometricGraph::sample(400, 2.0, rng_eager);
  eager.ensure_routing_mirror();
  EXPECT_FALSE(lazy.routing_mirror_built());
  EXPECT_TRUE(eager.routing_mirror_built());

  // Routing through the lazy graph materializes the mirror on first use
  // and takes exactly the same hops as on the eager graph.
  Rng pick(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto src = static_cast<NodeId>(pick.below(lazy.node_count()));
    const auto dst = static_cast<NodeId>(
        pick.below_excluding(lazy.node_count(), src));
    const auto via_lazy = routing::route_to_node(lazy, src, dst);
    const auto via_eager = routing::route_to_node(eager, src, dst);
    EXPECT_EQ(via_lazy.status, via_eager.status);
    EXPECT_EQ(via_lazy.hops, via_eager.hops);
    EXPECT_EQ(via_lazy.final_node, via_eager.final_node);
  }
  EXPECT_TRUE(lazy.routing_mirror_built());
  expect_identical_graphs(lazy, eager);
}

TEST(GeometricGraph, NonRoutingUseNeverBuildsTheMirror) {
  Rng rng(66);
  const auto g = GeometricGraph::sample(300, 2.0, rng);
  // The measurement-style workload: degrees, neighbours, nearest queries.
  (void)g.adjacency().mean_degree();
  (void)g.neighbors(0);
  (void)g.nearest_node({0.25, 0.75});
  (void)g.summary();
  EXPECT_FALSE(g.routing_mirror_built());
}

TEST(GeometricGraph, TinyRadiusKeepsTheGridSmall) {
  // At r = 1e-12 the grid side floor(1 / r) overflowed its int cast, and
  // so did the hop budget's ceil(diagonal / r); the side is now clamped to
  // ceil(sqrt(n)) and the budget to UINT32_MAX.  Every point is isolated,
  // so a route dead-ends where it starts.
  Rng rng(35);
  const auto points = geometry::sample_unit_square(100, rng);
  const GeometricGraph g(points, 1e-12);
  EXPECT_EQ(g.index().side(), 10);
  EXPECT_EQ(g.adjacency().edge_count(), 0u);
  EXPECT_EQ(routing::default_hop_budget(g), UINT32_MAX);
  const auto route = routing::route_to_node(g, 3, 97);
  EXPECT_EQ(route.status, routing::RouteStatus::kDeadEnd);
  EXPECT_EQ(route.hops, 0u);
  EXPECT_EQ(route.final_node, 3u);

  // sample() renumbers by the same side rule.
  const auto sampled = GeometricGraph::sample(100, 1e-11, rng);
  EXPECT_EQ(sampled.index().side(), 10);
  EXPECT_EQ(sampled.adjacency().edge_count(), 0u);

  // At r = 1e-4 the unclamped grid held 10^8 buckets for 100 points.
  const GeometricGraph small(points, 1e-4);
  EXPECT_LE(small.index().side(), 10);
  expect_edges_match_brute_force(small);
}

TEST(GeometricGraph, SubThresholdRadiusDisconnects) {
  // Far below the Gupta-Kumar threshold the graph shatters — the fixture
  // behind the connectivity experiment E7.
  Rng rng(34);
  const auto points = geometry::sample_unit_square(1000, rng);
  const GeometricGraph g(points, 0.25 * threshold_radius(1000));
  EXPECT_FALSE(is_connected(g.adjacency()));
  EXPECT_LT(largest_component_size(g.adjacency()), 500u);
}

}  // namespace
}  // namespace geogossip::graph
