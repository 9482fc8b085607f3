// Helpers shared by the test files: the standard deployment and field of
// the protocol tests, fresh temp directories, and whole-file reads and
// writes.
#ifndef GEOGOSSIP_TESTS_TEST_SUPPORT_HPP
#define GEOGOSSIP_TESTS_TEST_SUPPORT_HPP

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/geometric_graph.hpp"
#include "sim/field.hpp"
#include "support/rng.hpp"

namespace geogossip {

/// G(n, r) sampled from Rng(seed) at radius multiplier 2, which keeps
/// moderate deployments connected.
inline graph::GeometricGraph make_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::GeometricGraph::sample(n, 2.0, rng);
}

/// A gaussian field on g's nodes, centred and normalized, drawn from rng.
inline std::vector<double> make_field(const graph::GeometricGraph& g,
                                      Rng& rng) {
  auto x0 = sim::gaussian_field(g.node_count(), rng);
  sim::center_and_normalize(x0);
  return x0;
}

/// The same field drawn from Rng(seed).
inline std::vector<double> make_field(const graph::GeometricGraph& g,
                                      std::uint64_t seed) {
  Rng rng(seed);
  return make_field(g, rng);
}

/// `name` under the test temp directory, removed first so a test starts
/// from nothing.  The directory itself is not created.
inline std::string fresh_temp_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The whole file; a missing file reads as empty.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Replaces the file's bytes; a failed write fails the calling test.
inline void spit(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "failed writing " << path;
}

}  // namespace geogossip

#endif  // GEOGOSSIP_TESTS_TEST_SUPPORT_HPP
