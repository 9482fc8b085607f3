// The paper's recursive square hierarchy (§4.1).
//
// The unit square is split into n1 subsquares, n1 = nearest_even_square(
// sqrt(n)); each subsquare with expected occupancy m above a leaf threshold
// is split again into nearest_even_square(sqrt(m)) subsquares, and so on.
// The paper's literal threshold is (log n)^8, which exceeds n for every
// simulable n (the constants are asymptotic); HierarchyConfig therefore also
// offers a practical threshold that preserves the structure (depth ~
// log log n, fan-out ~ sqrt(occupancy)).  See DESIGN.md §2 ("Calibrated
// schedule").
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
  enum class Threshold {
    kPaper,      ///< split while expected occupancy > (ln n)^8 (literal §4.1)
    kPractical,  ///< split while expected occupancy > leaf_occupancy
  };

  Threshold threshold = Threshold::kPractical;
  double leaf_occupancy = kLeafOccupancy;
  int max_depth = kMaxDepth;

  /// The value of the splitting threshold for a deployment of n sensors.
  double threshold_value(std::size_t n) const;
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
  PartitionHierarchy(const std::vector<Vec2>& points, const Rect& region,
                     const HierarchyConfig& config);

  /// Convenience: unit-square region.
  PartitionHierarchy(const std::vector<Vec2>& points,
                     const HierarchyConfig& config);

  int root() const noexcept { return 0; }
  std::size_t square_count() const noexcept { return squares_.size(); }
  const SquareInfo& square(int id) const;

  /// Number of levels "ell" = 1 + deepest square depth (paper §4.1).
  int levels() const noexcept { return levels_; }

  /// Paper Level of a sensor: levels - r when it represents a depth-r
  /// square (deepest such square if it represents several), else 0.
  int node_level(std::uint32_t node) const;

  /// Arena index of the shallowest square represented by this sensor, or -1.
  int represented_square(std::uint32_t node) const;

  /// Arena index of the leaf square containing this sensor.
  int leaf_of(std::uint32_t node) const;

  /// The depth-d ancestor square of the sensor's leaf (d <= leaf depth).
  int square_of_at_depth(std::uint32_t node, int depth) const;

  /// All arena indices at exactly this depth.
  std::vector<int> squares_at_depth(int depth) const;

  /// All leaf arena indices.
  std::vector<int> leaves() const;

  /// Number of sensors that represent more than one square.  The paper
  /// argues this is 0 w.h.p.; tests observe it.
  int representative_conflicts() const noexcept { return rep_conflicts_; }

  /// Number of squares that contain no sensor at all (possible under
  /// adversarial deployments; the protocol must tolerate them).
  int empty_squares() const noexcept { return empty_squares_; }

  const std::vector<Vec2>& points() const noexcept { return *points_; }

  std::string summary() const;

 private:
  void build(const Rect& region, const HierarchyConfig& config);
  void finalize_levels();

  const std::vector<Vec2>* points_;
  std::vector<SquareInfo> squares_;
  std::vector<int> leaf_of_node_;
  std::vector<int> represented_by_node_;  ///< shallowest represented square
  std::vector<int> node_levels_;
  int levels_ = 1;
  int rep_conflicts_ = 0;
  int empty_squares_ = 0;
};

}  // namespace geogossip::geometry

#endif  // GEOGOSSIP_GEOMETRY_HIERARCHY_HPP
