#include "geometry/rect.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace geogossip::geometry {

Rect::Rect(Vec2 lo, Vec2 hi) : lo_(lo), hi_(hi) {
  GG_CHECK_ARG(lo.x < hi.x && lo.y < hi.y,
               "Rect requires lo < hi on both axes");
}

bool Rect::contains(Vec2 p) const noexcept {
  return p.x >= lo_.x && p.x < hi_.x && p.y >= lo_.y && p.y < hi_.y;
}

bool Rect::contains_closed(Vec2 p) const noexcept {
  return p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y;
}

int Rect::subsquare_index(Vec2 p, int side) const {
  GG_CHECK_ARG(side >= 1, "subsquare_index requires side >= 1");
  if (!contains_closed(p)) return -1;
  auto col = static_cast<int>((p.x - lo_.x) / width() * side);
  auto row = static_cast<int>((p.y - lo_.y) / height() * side);
  col = std::min(col, side - 1);
  row = std::min(row, side - 1);
  return row * side + col;
}

Rect Rect::subsquare(int index, int side) const {
  GG_CHECK_ARG(side >= 1, "subsquare requires side >= 1");
  GG_CHECK_ARG(index >= 0 && index < side * side,
               "subsquare index out of range");
  // Edges are computed multiplicatively from the parent's corners, and the
  // last row/column ends exactly on hi, so adjacent subsquares share
  // bit-identical boundaries (no FP gaps or overlaps).
  const int row = index / side;
  const int col = index % side;
  const double dx = width() / side;
  const double dy = height() / side;
  const double x0 = lo_.x + col * dx;
  const double x1 = (col == side - 1) ? hi_.x : lo_.x + (col + 1) * dx;
  const double y0 = lo_.y + row * dy;
  const double y1 = (row == side - 1) ? hi_.y : lo_.y + (row + 1) * dy;
  return Rect(Vec2{x0, y0}, Vec2{x1, y1});
}

std::string Rect::to_string() const {
  std::ostringstream os;
  os << "[(" << lo_.x << ',' << lo_.y << ")..(" << hi_.x << ',' << hi_.y
     << "))";
  return os.str();
}

}  // namespace geogossip::geometry
