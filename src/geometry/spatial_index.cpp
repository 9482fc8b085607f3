#include "geometry/spatial_index.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace geogossip::geometry {

BucketGrid::BucketGrid(const std::vector<Vec2>& points, const Rect& region,
                       double cell_size)
    : points_(&points), region_(region) {
  GG_CHECK_ARG(cell_size > 0.0, "BucketGrid: cell_size must be positive");
  const double extent = std::max(region.width(), region.height());
  side_ = side_for(extent, cell_size, points.size());
  // Never let buckets shrink below the requested cell size; range queries
  // with radius == cell_size must only need the 3x3 neighborhood.
  cell_size_ = extent / side_;

  // Counting sort into CSR.
  const auto buckets = static_cast<std::size_t>(side_) * side_;
  bucket_start_.assign(buckets + 1, 0);
  for (const Vec2& p : points) {
    GG_CHECK_ARG(region_.contains_closed(p),
                 "BucketGrid: point outside region");
    ++bucket_start_[static_cast<std::size_t>(bucket_of(p)) + 1];
  }
  for (std::size_t b = 1; b < bucket_start_.size(); ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  entries_.resize(points.size());
  std::vector<std::uint32_t> cursor(bucket_start_.begin(),
                                    bucket_start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto b = static_cast<std::size_t>(bucket_of(points[i]));
    entries_[cursor[b]++] = static_cast<std::uint32_t>(i);
  }
}

int BucketGrid::side_for(double extent, double cell_size,
                         std::size_t point_count) {
  const double most =
      std::max(1.0, std::ceil(std::sqrt(static_cast<double>(point_count))));
  return static_cast<int>(
      std::clamp(std::floor(extent / cell_size), 1.0, most));
}

int BucketGrid::bucket_of(Vec2 p) const noexcept {
  return row_of(p) * side_ + col_of(p);
}

std::size_t BucketGrid::fill_within(Vec2 p, double radius,
                                    std::vector<std::uint32_t>& out) const {
  GG_CHECK_ARG(radius >= 0.0, "fill_within: radius must be >= 0");
  // Reach in buckets, clamped to the grid side before the cast: a radius
  // of more than INT_MAX cells (1e300, infinity) covers the whole grid.
  const int reach = static_cast<int>(
      std::min(std::ceil(radius / cell_size_), static_cast<double>(side_)));
  const int pcol = col_of(p);
  const int prow = row_of(p);
  const int row_lo = std::max(0, prow - reach);
  const int row_hi = std::min(side_ - 1, prow + reach);
  const auto col_lo = static_cast<std::size_t>(std::max(0, pcol - reach));
  const auto col_hi =
      static_cast<std::size_t>(std::min(side_ - 1, pcol + reach));
  // A window row's buckets are adjacent in the CSR, so each row is one
  // contiguous entry range.
  const auto row_range = [&](int row) {
    const std::size_t b =
        static_cast<std::size_t>(row) * static_cast<std::size_t>(side_);
    return std::pair{bucket_start_[b + col_lo], bucket_start_[b + col_hi + 1]};
  };
  std::size_t candidates = 0;
  for (int row = row_lo; row <= row_hi; ++row) {
    const auto [first, last] = row_range(row);
    candidates += last - first;
  }
  if (out.size() < candidates) out.resize(candidates);

  // Every candidate is written, and the cursor advances by the 0/1
  // distance test.  A branch on that test would depend on the candidate's
  // position and mispredict often; the cursor never passes the candidate
  // being written, so no write leaves the buffer.
  const double r_sq = radius * radius;
  const Vec2* const points = points_->data();
  std::uint32_t* const dst = out.data();
  std::size_t count = 0;
  for (int row = row_lo; row <= row_hi; ++row) {
    const auto [first, last] = row_range(row);
    for (std::uint32_t e = first; e < last; ++e) {
      const std::uint32_t idx = entries_[e];
      dst[count] = idx;
      count += static_cast<std::size_t>(distance_sq(points[idx], p) <= r_sq);
    }
  }
  return count;
}

std::optional<std::uint32_t> BucketGrid::nearest(Vec2 p) const {
  if (points_->empty()) return std::nullopt;
  const int pcol = col_of(p);
  const int prow = row_of(p);

  double best_sq = std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  bool found = false;

  const auto scan_bucket = [&](int row, int col) {
    const auto b = static_cast<std::size_t>(row * side_ + col);
    for (std::uint32_t e = bucket_start_[b]; e < bucket_start_[b + 1]; ++e) {
      const std::uint32_t idx = entries_[e];
      const double d_sq = distance_sq((*points_)[idx], p);
      if (d_sq < best_sq || (d_sq == best_sq && found && idx < best)) {
        best_sq = d_sq;
        best = idx;
        found = true;
      }
    }
  };

  // Expanding rings; stop once the closest possible point in the next ring
  // cannot beat the current best.
  for (int ring = 0; ring < 2 * side_; ++ring) {
    const int row_lo = prow - ring;
    const int row_hi = prow + ring;
    const int col_lo = pcol - ring;
    const int col_hi = pcol + ring;
    bool scanned_any = false;
    for (int row = std::max(0, row_lo); row <= std::min(side_ - 1, row_hi);
         ++row) {
      for (int col = std::max(0, col_lo); col <= std::min(side_ - 1, col_hi);
           ++col) {
        const bool on_ring = row == row_lo || row == row_hi ||
                             col == col_lo || col == col_hi;
        if (!on_ring) continue;
        scanned_any = true;
        scan_bucket(row, col);
      }
    }
    if (found) {
      // Points in ring k+1 are at distance >= k*cell_size from p.
      const double ring_min = static_cast<double>(ring) * cell_size_;
      if (ring_min * ring_min > best_sq) break;
    }
    if (!scanned_any && ring > side_) break;
  }
  if (!found) return std::nullopt;
  return best;
}

std::vector<std::uint32_t> BucketGrid::points_in_rect(const Rect& rect) const {
  std::vector<std::uint32_t> out;
  const int col_lo = col_of(rect.lo());
  const int col_hi = col_of(rect.hi());
  const int row_lo = row_of(rect.lo());
  const int row_hi = row_of(rect.hi());
  // Half-open membership, except along the indexed region's own closed hi
  // boundary: the constructor accepts points sitting exactly on it (via
  // contains_closed), so a rect edge that reaches the region edge must
  // include them too or they silently vanish from every rect query.
  const bool closed_x = rect.hi().x >= region_.hi().x;
  const bool closed_y = rect.hi().y >= region_.hi().y;
  for (int row = row_lo; row <= row_hi; ++row) {
    for (int col = col_lo; col <= col_hi; ++col) {
      const auto b = static_cast<std::size_t>(row * side_ + col);
      for (std::uint32_t e = bucket_start_[b]; e < bucket_start_[b + 1];
           ++e) {
        const std::uint32_t idx = entries_[e];
        const Vec2 p = (*points_)[idx];
        const bool in_x =
            p.x >= rect.lo().x &&
            (p.x < rect.hi().x || (closed_x && p.x == rect.hi().x));
        const bool in_y =
            p.y >= rect.lo().y &&
            (p.y < rect.hi().y || (closed_y && p.y == rect.hi().y));
        if (in_x && in_y) out.push_back(idx);
      }
    }
  }
  return out;
}

Rect BucketGrid::bucket_rect(int row, int col) const {
  GG_CHECK_ARG(row >= 0 && row < side_ && col >= 0 && col < side_,
               "bucket_rect: bucket out of range");
  const Vec2 lo{region_.lo().x + col * cell_size_,
                region_.lo().y + row * cell_size_};
  // The grid is sized to the region's larger extent, so on a non-square
  // region whole rows/columns of buckets lie beyond the smaller side;
  // they hold no points and have no rectangle inside the region.
  GG_CHECK_ARG(lo.x < region_.hi().x && lo.y < region_.hi().y,
               "bucket_rect: bucket lies outside the region");
  const Vec2 hi{std::min(region_.hi().x, lo.x + cell_size_),
                std::min(region_.hi().y, lo.y + cell_size_)};
  return Rect(lo, hi);
}

}  // namespace geogossip::geometry
