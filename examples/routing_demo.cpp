// Visual tour of the paper's communication substrate: the partition
// hierarchy, greedy geographic routing, and an Activate flood — rendered
// as ASCII maps of the unit square.
//
//   $ ./routing_demo --n 900
#include <cmath>
#include <iostream>
#include <vector>

#include "geometry/hierarchy.hpp"
#include "graph/geometric_graph.hpp"
#include "routing/flood.hpp"
#include "routing/greedy.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;

namespace {

/// 2-D character canvas over the unit square.
class Canvas {
 public:
  Canvas(int width, int height)
      : width_(width), height_(height),
        rows_(static_cast<std::size_t>(height),
              std::string(static_cast<std::size_t>(width), ' ')) {}

  void plot(gg::geometry::Vec2 p, char marker) {
    const int col = std::min(width_ - 1,
                             static_cast<int>(p.x * width_));
    const int row = std::min(height_ - 1,
                             static_cast<int>(p.y * height_));
    char& cell = rows_[static_cast<std::size_t>(height_ - 1 - row)]
                      [static_cast<std::size_t>(col)];
    // Later, more specific markers win over the background dot.
    if (cell == ' ' || cell == '.' || marker != '.') cell = marker;
  }

  void print(std::ostream& out) const {
    out << '+' << std::string(static_cast<std::size_t>(width_), '-')
        << "+\n";
    for (const auto& row : rows_) out << '|' << row << "|\n";
    out << '+' << std::string(static_cast<std::size_t>(width_), '-')
        << "+\n";
  }

 private:
  int width_;
  int height_;
  std::vector<std::string> rows_;
};

}  // namespace

static int run(int argc, char** argv) {
  std::uint64_t n = 900;
  std::uint64_t seed = 37;

  gg::ArgParser parser("routing_demo",
                       "greedy routing + hierarchy visualization");
  parser.add_flag("n", &n, "number of sensors");
  parser.add_flag("seed", &seed, "random seed");
  const auto parsed = parser.parse(argc, argv);
  if (parsed != geogossip::ParseResult::kOk) {
    return geogossip::parse_exit_code(parsed);
  }

  gg::Rng rng(seed);
  const auto graph = gg::graph::GeometricGraph::sample(n, 1.5, rng);
  std::cout << graph.summary() << "\n\n";

  // --- 1. Greedy route corner to corner -------------------------------
  const auto src = graph.nearest_node({0.05, 0.05});
  const auto dst = graph.nearest_node({0.95, 0.95});
  std::vector<gg::graph::NodeId> path;
  gg::routing::RouteOptions options;
  options.trace = &path;
  const auto route = gg::routing::route_to_node(graph, src, dst, options);

  Canvas canvas(72, 28);
  for (const auto& p : graph.points()) canvas.plot(p, '.');
  for (const auto node : path) canvas.plot(graph.position(node), 'o');
  canvas.plot(graph.position(src), 'S');
  canvas.plot(graph.position(dst), 'D');
  std::cout << "greedy geographic route S -> D ("
            << (route.arrived() ? "delivered" : "FAILED") << ", "
            << route.hops << " hops, straight-line estimate "
            << gg::format_fixed(
                   gg::geometry::distance(graph.position(src),
                                          graph.position(dst)) /
                       graph.radius(),
                   1)
            << "):\n";
  canvas.print(std::cout);

  // --- 2. The paper's partition hierarchy ------------------------------
  gg::geometry::HierarchyConfig hconfig;
  hconfig.leaf_occupancy = 48.0;
  const gg::geometry::PartitionHierarchy hierarchy(graph.points(), hconfig);
  std::cout << '\n' << hierarchy.summary() << "\n\n";

  Canvas reps(72, 28);
  for (const auto& p : graph.points()) reps.plot(p, '.');
  for (std::size_t id = 0; id < hierarchy.square_count(); ++id) {
    const auto& sq = hierarchy.square(static_cast<int>(id));
    if (sq.representative < 0 || sq.depth == 0) continue;
    reps.plot(graph.position(
                  static_cast<gg::graph::NodeId>(sq.representative)),
              sq.is_leaf() ? 'r' : 'R');
  }
  std::cout << "representatives s(square): R = inner squares, r = leaves\n";
  reps.print(std::cout);

  // --- 3. Activate.square flood inside one leaf ------------------------
  const auto leaves = hierarchy.leaves();
  const auto& leaf = hierarchy.square(leaves[leaves.size() / 2]);
  if (leaf.representative >= 0) {
    const auto flood = gg::routing::flood_square(
        graph, static_cast<gg::graph::NodeId>(leaf.representative),
        leaf.rect);
    Canvas flood_canvas(72, 28);
    for (const auto& p : graph.points()) flood_canvas.plot(p, '.');
    for (const auto node : flood.reached) {
      flood_canvas.plot(graph.position(node), '#');
    }
    std::cout << "\nActivate.square flood inside one leaf ("
              << flood.reached.size() << " sensors reached, "
              << flood.transmissions << " transmissions, "
              << flood.unreached_members << " unreached):\n";
    flood_canvas.print(std::cout);
  }
  return 0;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
