#include "graph/csr.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace geogossip::graph {

void CsrGraph::check_node_count(std::uint64_t node_count) {
  GG_CHECK_ARG(node_count <= max_node_count(),
               "graph node count " + std::to_string(node_count) +
                   " exceeds the 32-bit NodeId ceiling (2^32); shard the "
                   "deployment or widen NodeId");
}

CsrGraph CsrGraph::from_parts(std::vector<std::uint64_t> offsets,
                              std::vector<NodeId> targets) {
  GG_CHECK_ARG(!offsets.empty(), "from_parts: offsets must have n+1 entries");
  check_node_count(offsets.size() - 1);
  GG_CHECK_ARG(offsets.front() == 0, "from_parts: offsets must start at 0");
  GG_CHECK_ARG(offsets.back() == targets.size(),
               "from_parts: offsets.back() must equal targets.size()");
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  // Validate the whole offset array BEFORE forming any iterator from it:
  // monotone plus front==0/back==size bounds every entry by targets.size(),
  // so the row iterators below cannot point past the buffer.
  for (NodeId v = 0; v < n; ++v) {
    GG_CHECK_ARG(offsets[v] <= offsets[v + 1],
                 "from_parts: offsets must be non-decreasing");
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto begin =
        targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto end =
        targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    GG_CHECK_ARG(std::is_sorted(begin, end),
                 "from_parts: per-node targets must be sorted");
    GG_CHECK_ARG(std::adjacent_find(begin, end) == end,
                 "from_parts: duplicate edge in row");
    for (auto it = begin; it != end; ++it) {
      GG_CHECK_ARG(*it < n, "from_parts: target out of range");
      GG_CHECK_ARG(*it != v, "from_parts: self-loop in row");
    }
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

CsrGraph CsrGraph::from_edges(
    NodeId node_count, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(node_count) + 1,
                                     0);
  for (const auto& [a, b] : edges) {
    GG_CHECK_ARG(a < node_count && b < node_count,
                 "edge endpoint out of range");
    GG_CHECK_ARG(a != b, "self-loops are not allowed");
    ++offsets[a + 1];
    ++offsets[b + 1];
  }
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];

  std::vector<NodeId> targets(offsets.back());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    targets[cursor[a]++] = b;
    targets[cursor[b]++] = a;
  }
  for (NodeId v = 0; v < node_count; ++v) {
    const auto begin = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto end = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(begin, end);
    GG_CHECK_ARG(std::adjacent_find(begin, end) == end,
                 "duplicate edge in input");
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

CsrGraph CsrGraph::from_adjacency(
    const std::vector<std::vector<NodeId>>& adjacency) {
  check_node_count(adjacency.size());
  const auto n = static_cast<NodeId>(adjacency.size());
  std::vector<std::uint64_t> offsets(adjacency.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    total += adjacency[v].size();
    offsets[v + 1] = total;
  }
  std::vector<NodeId> targets;
  targets.reserve(total);
  for (const auto& list : adjacency) {
    for (const NodeId t : list) {
      GG_CHECK_ARG(t < n, "adjacency target out of range");
      targets.push_back(t);
    }
  }
  CsrGraph g(std::move(offsets), std::move(targets));
  // Validate symmetry and sort neighbourhoods.
  for (NodeId v = 0; v < n; ++v) {
    const auto begin =
        g.targets_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    const auto end =
        g.targets_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      GG_CHECK_ARG(u != v, "self-loop in adjacency");
      GG_CHECK_ARG(g.has_edge(u, v), "adjacency is not symmetric");
    }
  }
  return g;
}

std::size_t CsrGraph::degree(NodeId node) const {
  GG_CHECK_ARG(node < node_count(), "node out of range");
  return static_cast<std::size_t>(offsets_[node + 1] - offsets_[node]);
}

bool CsrGraph::has_edge(NodeId a, NodeId b) const {
  GG_CHECK_ARG(a < node_count() && b < node_count(), "node out of range");
  const auto nbrs = neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

std::size_t CsrGraph::min_degree() const noexcept {
  if (node_count() == 0) return 0;
  std::size_t best = degree(0);
  for (NodeId v = 1; v < node_count(); ++v) best = std::min(best, degree(v));
  return best;
}

std::size_t CsrGraph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

double CsrGraph::mean_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(targets_.size()) /
         static_cast<double>(node_count());
}

}  // namespace geogossip::graph
