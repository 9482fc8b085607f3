// Quickstart: average a sensor field with the paper's affine gossip in
// ~30 lines of user code.
//
//   $ ./quickstart --n 4096 --eps 1e-3
//
// Builds a geometric random graph at the paper's connectivity radius,
// gives every sensor a random reading, runs the hierarchical affine gossip
// protocol to the epsilon target and prints the transmission bill.
#include <iostream>

#include "core/multilevel.hpp"
#include "graph/geometric_graph.hpp"
#include "sim/field.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace gg = geogossip;

static int run(int argc, char** argv) {
  std::uint64_t n = 4096;
  double eps = 1e-3;
  std::uint64_t seed = 7;

  gg::ArgParser parser("quickstart", "minimal affine-gossip averaging run");
  parser.add_flag("n", &n, "number of sensors");
  parser.add_flag("eps", &eps, "relative accuracy target");
  parser.add_flag("seed", &seed, "random seed");
  const auto parsed = parser.parse(argc, argv);
  if (parsed != geogossip::ParseResult::kOk) {
    return geogossip::parse_exit_code(parsed);
  }

  gg::Rng rng(seed);

  // 1. Deploy n sensors uniformly on the unit square, connect at
  //    r = 1.2 sqrt(log n / n)  (the paper's standing assumption).
  const auto graph = gg::graph::GeometricGraph::sample(n, 1.2, rng);
  std::cout << graph.summary() << '\n';

  // 2. Each sensor holds a reading; the fleet wants the global average.
  auto readings = gg::sim::gaussian_field(graph.node_count(), rng);
  gg::sim::center_and_normalize(readings);

  // 3. Run the paper's protocol (hierarchical affine gossip).
  gg::core::MultilevelConfig config;
  config.eps = eps;
  gg::core::MultilevelAffineGossip protocol(graph, readings, rng, config);
  std::cout << protocol.hierarchy().summary() << "\n\n";

  const auto result = protocol.run();

  // 4. Inspect the outcome.
  std::cout << (result.converged ? "converged" : "DID NOT converge")
            << " after " << gg::format_count(result.top_rounds)
            << " top-level rounds\n"
            << "final relative error: "
            << gg::format_sci(result.final_error, 2) << '\n'
            << "transmissions: " << result.transmissions.to_string() << '\n'
            << "per sensor:    "
            << gg::format_fixed(
                   static_cast<double>(result.transmissions.total()) /
                       static_cast<double>(graph.node_count()),
                   1)
            << " transmissions\n";
  return result.converged ? 0 : 1;
}

int main(int argc, char** argv) { return gg::run_main(argc, argv, run); }
