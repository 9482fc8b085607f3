// Compressed-sparse-row adjacency for undirected graphs.
//
// All simulation inner loops touch neighbourhoods through this structure:
// contiguous, cache-friendly, immutable after construction.
#ifndef GEOGOSSIP_GRAPH_CSR_HPP
#define GEOGOSSIP_GRAPH_CSR_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace geogossip::graph {

using NodeId = std::uint32_t;

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Largest representable node count: ids and per-node loop counters are
  /// 32-bit, so graphs must keep n < 2^32.  Constructors reject larger
  /// inputs explicitly (check_node_count) instead of silently truncating.
  static constexpr std::uint64_t max_node_count() noexcept {
    return (std::uint64_t{1} << 32) - 1;
  }
  /// Throws ArgumentError when `node_count` exceeds the 32-bit NodeId
  /// ceiling.  Public so graph builders can fail before allocating.
  static void check_node_count(std::uint64_t node_count);

  /// Builds from an undirected edge list (each pair stored once, in either
  /// order).  Self-loops and duplicate edges are rejected.
  static CsrGraph from_edges(NodeId node_count,
                             const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Builds from per-node adjacency lists (must already be symmetric; this
  /// is validated).
  static CsrGraph from_adjacency(
      const std::vector<std::vector<NodeId>>& adjacency);

  /// Adopts an already-laid-out CSR: offsets_[v]..offsets_[v+1] must index
  /// `targets`, per-node lists sorted ascending, symmetric, no self-loops
  /// or duplicates.  Validates the cheap structural invariants (monotone
  /// offsets, matching sizes, per-node sortedness, in-range targets) in
  /// O(n + m); symmetry is the caller's contract — the geometric build
  /// derives both directions of every edge from one symmetric distance
  /// predicate, so re-checking it here would double the build's memory
  /// traffic for no information.
  static CsrGraph from_parts(std::vector<std::uint64_t> offsets,
                             std::vector<NodeId> targets);

  std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  std::size_t edge_count() const noexcept { return targets_.size() / 2; }

  std::span<const NodeId> neighbors(NodeId node) const {
    GG_CHECK_ARG(node < node_count(), "node out of range");
    return {targets_.data() + offsets_[node],
            targets_.data() + offsets_[node + 1]};
  }
  /// Unchecked neighbour slice: `node` must come from this graph.
  std::span<const NodeId> neighbors_unchecked(NodeId node) const noexcept {
    return {targets_.data() + offsets_[node],
            targets_.data() + offsets_[node + 1]};
  }
  /// Raw CSR row offsets (node_count() + 1 entries); offsets()[v] ..
  /// offsets()[v+1] indexes the flat target array.  Parallel per-node
  /// passes (the routing mirror build) slice their output with these.
  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  std::size_t degree(NodeId node) const;

  bool has_edge(NodeId a, NodeId b) const;

  std::size_t min_degree() const noexcept;
  std::size_t max_degree() const noexcept;
  double mean_degree() const noexcept;

 private:
  CsrGraph(std::vector<std::uint64_t> offsets, std::vector<NodeId> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {}

  // offsets_[v]..offsets_[v+1] indexes targets_; targets sorted per node.
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> targets_;
};

}  // namespace geogossip::graph

#endif  // GEOGOSSIP_GRAPH_CSR_HPP
