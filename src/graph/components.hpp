// Connected components — used to validate the p >= delta ln n / n
// connectivity regime and to extract the giant component when a trial draws
// a (rare) disconnected instance.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace radio {

struct Components {
  std::vector<NodeId> label;        ///< per node: component index, 0-based
  std::vector<std::size_t> sizes;   ///< per component

  std::size_t count() const noexcept { return sizes.size(); }

  /// Index of a largest component.
  std::size_t largest() const noexcept;
};

Components connected_components(const Graph& g);

/// Whether every node is reachable from node 0 (true for n ≤ 1); a
/// direction-optimizing search that stops as soon as the last node is
/// reached.
bool is_connected(const Graph& g);

/// Extracts the largest component as its own graph (ids remapped; mapping
/// returned alongside).
Graph::InducedSubgraph largest_component_subgraph(const Graph& g);

}  // namespace radio
