// Connectivity analysis: BFS component labels.
#ifndef GEOGOSSIP_GRAPH_CONNECTIVITY_HPP
#define GEOGOSSIP_GRAPH_CONNECTIVITY_HPP

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace geogossip::graph {

/// Component label (0-based, by discovery order) for every node.
std::vector<std::uint32_t> connected_components(const CsrGraph& g);

bool is_connected(const CsrGraph& g);

/// Size of the largest connected component.
std::size_t largest_component_size(const CsrGraph& g);

}  // namespace geogossip::graph

#endif  // GEOGOSSIP_GRAPH_CONNECTIVITY_HPP
