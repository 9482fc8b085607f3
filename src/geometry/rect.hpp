// Axis-aligned rectangles with half-open membership semantics.
//
// Half-open ([min, max) on both axes) is load-bearing: a k x k subdivision of
// the unit square must assign every sampled point to exactly one subsquare,
// with no double-counting on shared edges.  The unit square itself is closed
// on its top/right edge via UnitSquare() + contains_closed() where needed.
#ifndef GEOGOSSIP_GEOMETRY_RECT_HPP
#define GEOGOSSIP_GEOMETRY_RECT_HPP

#include <string>

#include "geometry/vec2.hpp"

namespace geogossip::geometry {

class Rect {
 public:
  Rect() = default;
  /// Requires lo.x < hi.x and lo.y < hi.y (checked).
  Rect(Vec2 lo, Vec2 hi);

  static Rect unit_square() { return Rect({0.0, 0.0}, {1.0, 1.0}); }

  Vec2 lo() const noexcept { return lo_; }
  Vec2 hi() const noexcept { return hi_; }
  double width() const noexcept { return hi_.x - lo_.x; }
  double height() const noexcept { return hi_.y - lo_.y; }
  double area() const noexcept { return width() * height(); }
  Vec2 center() const noexcept {
    return {(lo_.x + hi_.x) * 0.5, (lo_.y + hi_.y) * 0.5};
  }

  /// Half-open membership: lo <= p < hi on both axes.
  bool contains(Vec2 p) const noexcept;
  /// Closed membership (both edges included); for the outermost square.
  bool contains_closed(Vec2 p) const noexcept;

  /// Nearest point of the (closed) rectangle to p; p itself if inside.
  Vec2 clamp(Vec2 p) const noexcept;

  /// Index of the subsquare of a side*side subdivision containing p, or -1
  /// if p is outside.  Points on the global top/right edge are clamped into
  /// the last row/column so the closed unit square is fully covered.
  int subsquare_index(Vec2 p, int side) const;

  /// The subrectangle at `index` of a side*side subdivision, row-major from
  /// the lo corner: index = row*side + col, row along y, col along x.
  /// Requires side >= 1.  Adjacent subsquares share bit-identical edges.
  Rect subsquare(int index, int side) const;

  std::string to_string() const;

 private:
  Vec2 lo_{0.0, 0.0};
  Vec2 hi_{1.0, 1.0};
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_RECT_HPP
