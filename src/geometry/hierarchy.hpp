// The paper's recursive square hierarchy (§4.1).
//
// The unit square is split into n1 subsquares, n1 = nearest_even_square(
// sqrt(n)); each subsquare with expected occupancy m above the leaf
// occupancy is split again into nearest_even_square(sqrt(m)) subsquares,
// and so on.  The paper's literal threshold is (log n)^8, which exceeds n
// for every simulable n (the constants are asymptotic) and would leave the
// root unsplit; the one split rule here uses a calibrated leaf occupancy
// instead, which preserves the structure (depth ~ log log n, fan-out ~
// sqrt(occupancy)).  See DESIGN.md §2 ("Calibrated schedule").
//
// Every square records its representative s(square) — the member sensor
// nearest the square's centre — and each sensor gets the paper's Level:
// a sensor that represents a depth-r square has Level (levels - r); all
// other sensors have Level 0.  The root representative s(unit square) has
// the single highest Level.
#ifndef GEOGOSSIP_GEOMETRY_HIERARCHY_HPP
#define GEOGOSSIP_GEOMETRY_HIERARCHY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "support/check.hpp"

namespace geogossip::geometry {

/// Leaf size of the practical threshold, the stand-in for the paper's
/// (ln n)^8: leaves still hold Theta(polylog) sensors at simulable n.
inline constexpr double kLeafOccupancy = 48.0;
static_assert(kLeafOccupancy >= 1.0,
              "below 1 every square splits down to the depth cap");
/// Hard safety cap on recursion depth.
inline constexpr int kMaxDepth = 12;
static_assert(kMaxDepth >= 1, "the root must be allowed to split");

struct HierarchyConfig {
  /// A square splits while its expected occupancy exceeds this.  At least
  /// 1: below that every square splits down to max_depth, and the square
  /// count grows fourfold per level.
  double leaf_occupancy = kLeafOccupancy;
  int max_depth = kMaxDepth;
};

/// One square of the hierarchy.  Squares form an arena-indexed tree; index 0
/// is the root (the whole deployment region).
struct SquareInfo {
  Rect rect;
  int depth = 0;                ///< r in the paper's □_{i1...ir}
  int parent = -1;              ///< arena index; -1 for the root
  int subdivision_side = 0;     ///< child grid side; 0 for leaves
  std::vector<int> children;    ///< arena indices, row-major
  double expected_occupancy = 0.0;  ///< E#(□) = n * area
  std::vector<std::uint32_t> members;  ///< sensor indices inside (half-open)
  std::int32_t representative = -1;    ///< s(□); -1 when the square is empty

  bool is_leaf() const noexcept { return children.empty(); }
  std::size_t occupancy() const noexcept { return members.size(); }
};

class PartitionHierarchy {
 public:
  /// Builds the hierarchy over `points` in `region` (paper: unit square).
  /// Throws ArgumentError when `points` is empty or the leaf occupancy is
  /// below 1 (or NaN).
  PartitionHierarchy(const std::vector<Vec2>& points, const Rect& region,
                     const HierarchyConfig& config);

  /// Convenience: unit-square region.
  PartitionHierarchy(const std::vector<Vec2>& points,
                     const HierarchyConfig& config);

  int root() const noexcept { return 0; }
  std::size_t square_count() const noexcept { return squares_.size(); }
  const SquareInfo& square(int id) const {
    GG_CHECK_ARG(id >= 0 && static_cast<std::size_t>(id) < squares_.size(),
                 "square id out of range");
    return squares_[static_cast<std::size_t>(id)];
  }

  /// Number of levels "ell" = 1 + deepest square depth (paper §4.1).
  int levels() const noexcept { return levels_; }

  /// Paper Level of a sensor: levels - r when it represents a depth-r
  /// square (deepest such square if it represents several), else 0.
  int node_level(std::uint32_t node) const {
    GG_CHECK_ARG(node < node_levels_.size(), "node index out of range");
    return node_levels_[node];
  }

  /// Arena index of the shallowest square represented by this sensor, or -1.
  int represented_square(std::uint32_t node) const {
    GG_CHECK_ARG(node < represented_by_node_.size(),
                 "node index out of range");
    return represented_by_node_[node];
  }

  /// Arena index of the leaf square containing this sensor.
  int leaf_of(std::uint32_t node) const {
    GG_CHECK_ARG(node < leaf_of_node_.size(), "node index out of range");
    return leaf_of_node_[node];
  }

  /// All leaf arena indices.
  std::vector<int> leaves() const;

  /// Number of squares that contain no sensor at all (possible under
  /// adversarial deployments; the protocol must tolerate them).
  int empty_squares() const noexcept { return empty_squares_; }

  const std::vector<Vec2>& points() const noexcept { return *points_; }

  std::string summary() const;

 private:
  void build(const Rect& region, const HierarchyConfig& config);
  void finalize_levels();
  /// All arena indices at exactly this depth.
  std::vector<int> squares_at_depth(int depth) const;

  const std::vector<Vec2>* points_;
  std::vector<SquareInfo> squares_;
  std::vector<int> leaf_of_node_;
  std::vector<int> represented_by_node_;  ///< shallowest represented square
  std::vector<int> node_levels_;
  int levels_ = 1;
  /// Sensors that represent more than one square (the paper argues 0
  /// w.h.p.); summary() reports them.
  int rep_conflicts_ = 0;
  int empty_squares_ = 0;
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_HIERARCHY_HPP
