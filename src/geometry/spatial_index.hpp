// Bucket-grid spatial index over a fixed point set.
//
// This is the workhorse behind geometric-random-graph construction (range
// queries with radius r using a grid of cell size r) and nearest-node lookup
// (expanding ring search), replacing any O(n^2) scans.
//
// fill_within is the one range scan.  It writes into a caller's reused
// buffer so the CSR build (one scan per node per pass) allocates nothing
// per node.
#ifndef GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP
#define GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "support/check.hpp"

namespace geogossip::geometry {

class BucketGrid {
 public:
  /// Indexes `points` (referenced, must outlive the index) over `region`
  /// with square buckets of size >= cell_size, side_for() buckets per
  /// side.  Requires cell_size > 0 and all points inside the closed region.
  BucketGrid(const std::vector<Vec2>& points, const Rect& region,
             double cell_size);

  /// Buckets per side for `point_count` points over a region whose larger
  /// extent is `extent`: floor(extent / cell_size), clamped in double to
  /// [1, ceil(sqrt(point_count))] before the cast.  A tiny cell size thus
  /// neither overflows the int nor allocates more than O(point_count)
  /// buckets; the buckets only grow, so range queries stay exact.
  static int side_for(double extent, double cell_size,
                      std::size_t point_count);

  std::size_t size() const noexcept { return points_->size(); }
  const std::vector<Vec2>& points() const noexcept { return *points_; }

  /// Writes the index of every point with distance(p, point) <= radius to
  /// the front of `out` and returns how many it wrote; the query point
  /// itself is reported too if it is in the set.  `out` grows to the scan
  /// window's candidate count when it is smaller, and entries past the
  /// returned count are left over from the scan.  Indices come in bucket
  /// row-major order.
  std::size_t fill_within(Vec2 p, double radius,
                          std::vector<std::uint32_t>& out) const;

  /// Index of the point nearest to p (ties: lowest index), or nullopt when
  /// the point set is empty.  Expanding ring search: O(1) expected for
  /// roughly uniform points.
  std::optional<std::uint32_t> nearest(Vec2 p) const;

  /// All point indices inside `rect`.  Membership is half-open (lo <= p <
  /// hi), EXCEPT where a rect edge reaches the indexed region's own closed
  /// hi boundary: there the edge is treated as closed, matching the
  /// constructor's contains_closed() acceptance — a query covering the
  /// whole region returns every indexed point, boundary sitters included.
  std::vector<std::uint32_t> points_in_rect(const Rect& rect) const;

  // ----- bucket (CSR) introspection: stratified-sampling support -----

  /// Buckets per side; bucket (row, col) covers
  /// [lo + col*cell, lo + (col+1)*cell) x [lo + row*cell, ...).
  int side() const noexcept { return side_; }
  double cell_size() const noexcept { return cell_size_; }
  const Rect& region() const noexcept { return region_; }

  /// Point indices stored in bucket (row, col) — a CSR slice, no copy.
  std::span<const std::uint32_t> bucket_entries(int row, int col) const {
    GG_CHECK_ARG(row >= 0 && row < side_ && col >= 0 && col < side_,
                 "bucket_entries: bucket out of range");
    const auto b = static_cast<std::size_t>(row * side_ + col);
    return {entries_.data() + bucket_start_[b],
            entries_.data() + bucket_start_[b + 1]};
  }

  /// The sub-rectangle of the region covered by bucket (row, col),
  /// clipped to the region so edge buckets absorb the rounding slack.
  /// Requires the bucket to intersect the region: the grid is sized to
  /// the larger extent, so on a non-square region the rows/columns
  /// beyond the smaller side hold no points and have no rectangle
  /// (ArgumentError).
  Rect bucket_rect(int row, int col) const;

 private:
  int bucket_of(Vec2 p) const noexcept;
  int col_of(Vec2 p) const noexcept {
    return std::clamp(static_cast<int>((p.x - region_.lo().x) / cell_size_),
                      0, side_ - 1);
  }
  int row_of(Vec2 p) const noexcept {
    return std::clamp(static_cast<int>((p.y - region_.lo().y) / cell_size_),
                      0, side_ - 1);
  }

  const std::vector<Vec2>* points_;
  Rect region_;
  double cell_size_;
  int side_;
  // CSR layout: bucket b owns entries_[bucket_start_[b] .. bucket_start_[b+1]).
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> entries_;
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_SPATIAL_INDEX_HPP
