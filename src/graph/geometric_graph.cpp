#include "graph/geometric_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "geometry/sampling.hpp"
#include "graph/radius.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::graph {

GeometricGraph::GeometricGraph(std::vector<geometry::Vec2> points, double r,
                               const geometry::Rect& region)
    : points_(std::move(points)),
      r_(r),
      region_(region),
      mirror_(std::make_unique<RoutingMirror>()) {
  GG_CHECK_ARG(!points_.empty(), "GeometricGraph: no points");
  GG_CHECK_ARG(r > 0.0, "GeometricGraph: radius must be positive");
  CsrGraph::check_node_count(points_.size());
  obs::Span span("graph_build", "n",
                 static_cast<std::int64_t>(points_.size()));
  index_ = std::make_unique<geometry::BucketGrid>(points_, region_, r_);

  // CSR build straight from the bucket grid, one scan per node: each row
  // is appended to one target array, and the running row ends become the
  // offsets.  No edge-list intermediate and no global sort.  The targets
  // are reserved at the expected interior degree of n points uniform on
  // the region (boundary nodes see less; a clustered set that outgrows it
  // pays a reallocation).
  const std::size_t n = points_.size();
  const geometry::BucketGrid& grid = *index_;
  const double expected_degree =
      std::min(expected_interior_degree(n, r_) / region_.area(),
               static_cast<double>(n - 1));
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(
      static_cast<std::size_t>(expected_degree * static_cast<double>(n)));
  std::vector<std::uint32_t> row;  // the grid's scan buffer, reused
  for (std::size_t i = 0; i < n; ++i) {
    // The scan reports node i itself too; every other in-range index is a
    // neighbour (coincident points included).  The grid visits candidates
    // in bucket row-major order, which for spatially renumbered samples is
    // already ascending id order — the per-row sort then degenerates to
    // the is_sorted check; arbitrary point sets pay an O(deg log deg) sort.
    const std::size_t found = grid.fill_within(points_[i], r_, row);
    const auto last = row.begin() + static_cast<std::ptrdiff_t>(found);
    const auto self =
        std::find(row.begin(), last, static_cast<std::uint32_t>(i));
    GG_CHECK(self != last, "a node's scan misses itself");
    targets.insert(targets.end(), row.begin(), self);
    targets.insert(targets.end(), self + 1, last);
    const auto row_begin =
        targets.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
    if (!std::is_sorted(row_begin, targets.end())) {
      std::sort(row_begin, targets.end());
    }
    offsets[i + 1] = targets.size();
  }
  csr_ = CsrGraph::from_parts(std::move(offsets), std::move(targets));
}

void GeometricGraph::build_routing_mirror() const {
  obs::Span span("routing_mirror", "n",
                 static_cast<std::int64_t>(points_.size()));
  // Routing-ordered mirror of the CSR: neighbours grouped into annuli by
  // distance from the node, farthest annulus first, each entry carrying
  // its annulus index; the graph's bound table maps an index to the
  // annulus's (conservative, rounded-up) outer radius.  The greedy
  // scan's triangle-inequality pruning only needs a non-increasing upper
  // bound per entry, so annulus granularity keeps it exact while the
  // grouping is an O(degree) counting sort instead of a comparison sort.
  // Row v of the mirror occupies the same slice as row v of the CSR.
  constexpr int kAnnuli = kRoutingAnnuli;
  static_assert((kAnnuli & (kAnnuli - 1)) == 0,
                "the annulus search halves a power-of-two range");
  static_assert(kAnnuli <= 256, "an annulus index fits one byte");
  double edge_sq[kAnnuli + 1];  // edge_sq[a] = (r * (kAnnuli - a) / K)^2
  for (int a = 0; a <= kAnnuli; ++a) {
    const double edge = r_ * static_cast<double>(kAnnuli - a) / kAnnuli;
    edge_sq[a] = edge * edge;
    if (a < kAnnuli) {
      float up = static_cast<float>(edge);
      if (static_cast<double>(up) < edge) {
        up = std::nextafter(up, std::numeric_limits<float>::infinity());
      }
      mirror_->bounds[static_cast<std::size_t>(a)] = up;
    }
  }

  const auto offsets = csr_.offsets();
  // offsets.back() == total arc count; exact even for a (contract-
  // violating) asymmetric adjacency, where 2 * edge_count() would round
  // an odd arc count down and the fill loop would overrun by one.  The
  // fill writes every slot, so neither array is value-initialized.
  auto ids = std::make_unique_for_overwrite<NodeId[]>(offsets.back());
  auto annuli = std::make_unique_for_overwrite<std::uint8_t[]>(offsets.back());
  std::vector<std::uint8_t> annulus_of;  // per-node scratch, reused
  for (std::size_t v = 0; v < points_.size(); ++v) {
    const auto neighbors = csr_.neighbors_unchecked(static_cast<NodeId>(v));
    const std::uint64_t base = offsets[v];
    annulus_of.resize(neighbors.size());
    std::uint32_t cursor[kAnnuli] = {};
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const double d_sq =
          geometry::distance_sq(points_[v], points_[neighbors[k]]);
      // Largest annulus index a with d_sq <= edge_sq[a], else 0.  The
      // edges shrink with a, so the test holds for a prefix of indices,
      // and log2(kAnnuli) halving steps find its end.  Each step adds
      // the step times the 0/1 outcome, which compiles without a branch:
      // the outcome depends on the neighbour's distance, and a branch on
      // it mispredicts about half the time, which cost as much as the
      // rest of the fill.
      int a = 0;
      for (int step = kAnnuli / 2; step > 0; step /= 2) {
        a += step * static_cast<int>(d_sq <= edge_sq[a + step]);
      }
      annulus_of[k] = static_cast<std::uint8_t>(a);
      ++cursor[a];
    }
    // Prefix-sum the per-annulus counts into slice cursors, then place.
    std::uint32_t start = 0;
    for (int a = 0; a < kAnnuli; ++a) {
      const std::uint32_t count = cursor[a];
      cursor[a] = start;
      start += count;
    }
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const std::uint8_t a = annulus_of[k];
      const std::size_t slot = base + cursor[a]++;
      ids[slot] = neighbors[k];
      annuli[slot] = a;
    }
  }
  // Non-null ids mark the mirror built, so they go in last.
  mirror_->annuli = std::move(annuli);
  mirror_->ids = std::move(ids);
}

GeometricGraph GeometricGraph::sample(std::size_t n, double radius_multiplier,
                                      Rng& rng) {
  GG_CHECK_ARG(n >= 2, "GeometricGraph::sample: n >= 2");
  CsrGraph::check_node_count(n);
  auto points = geometry::sample_unit_square(n, rng);
  const double r = paper_radius(n, radius_multiplier);

  // Spatial renumbering: sort the sample into bucket row-major order (the
  // same buckets, by the same side rule, as the graph's BucketGrid) before
  // assigning node ids.  The sample is i.i.d. — the labelling is an
  // artifact — but the labelling decides memory layout: with spatially
  // sorted ids, a node's neighbours occupy a handful of contiguous id
  // runs, so the greedy-routing inner loop reads positions_ almost
  // sequentially instead of gathering uniformly over the whole array.  At
  // paper radii a 3-row working set fits L1 where the unsorted layout
  // thrashes it.
  const int side = geometry::BucketGrid::side_for(1.0, r, n);
  const double cell = 1.0 / side;
  // One precomputed (bucket, sample index) key per point, sorted as a
  // packed u64 — computing keys inside a comparator costs two float->int
  // conversions per comparison and dominates the sort.  The side rule
  // caps side at ceil(sqrt(n)) <= 2^16, so a bucket index fits the key's
  // upper 32 bits.
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto col = static_cast<std::uint64_t>(
        std::min(side - 1, static_cast<int>(points[i].x / cell)));
    const auto row = static_cast<std::uint64_t>(
        std::min(side - 1, static_cast<int>(points[i].y / cell)));
    keys[i] = ((row * static_cast<std::uint64_t>(side) + col) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<geometry::Vec2> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = points[keys[i] & 0xffffffffull];
  }
  return GeometricGraph(std::move(sorted), r);
}

geometry::Vec2 GeometricGraph::position(NodeId node) const {
  GG_CHECK_ARG(node < points_.size(), "node out of range");
  return points_[node];
}

NodeId GeometricGraph::nearest_node(geometry::Vec2 position) const {
  const auto found = index_->nearest(position);
  GG_CHECK(found.has_value(), "nearest_node on empty graph");
  return *found;
}

std::string GeometricGraph::summary() const {
  std::ostringstream os;
  os << "G(n=" << points_.size() << ", r=" << format_fixed(r_, 5)
     << "): " << csr_.edge_count() << " edges, degree min/mean/max = "
     << csr_.min_degree() << '/' << format_fixed(csr_.mean_degree(), 1) << '/'
     << csr_.max_degree();
  return os.str();
}

}  // namespace geogossip::graph
