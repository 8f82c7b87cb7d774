#include "graph/components.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

std::size_t Components::largest() const noexcept {
  RADIO_EXPECTS(!sizes.empty());
  return static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

Components connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (out.label[start] != kInvalidNode) continue;
    const auto comp = static_cast<NodeId>(out.sizes.size());
    std::size_t size = 0;
    stack.push_back(start);
    out.label[start] = comp;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      ++size;
      for (NodeId w : g.neighbors(v)) {
        if (out.label[w] == kInvalidNode) {
          out.label[w] = comp;
          stack.push_back(w);
        }
      }
    }
    out.sizes.push_back(size);
  }
  return out;
}

bool is_connected(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (n <= 1) return true;
  // Reachability from node 0, direction-optimizing: a step expands the
  // frontier top-down (Σ deg(frontier) touches), or lets every unreached
  // node look for any reached neighbor, stopping at the first. That sweep
  // costs the O(n) scan plus, per unreached node, the neighbors it reads
  // before its first reached one: about n / reached in a random graph, and
  // never more than its degree. Only the count matters, so a node reached
  // early in a sweep may already serve later ones.
  Bitset reached(n);
  reached.set(0);
  std::size_t count = 1;
  std::vector<NodeId> frontier{0};
  std::vector<NodeId> next;
  EdgeCount frontier_degrees = g.degree(0);
  EdgeCount unreached_degrees = 2 * g.num_edges() - frontier_degrees;
  while (!frontier.empty() && count < n) {
    next.clear();
    const EdgeCount sweep =
        std::min<EdgeCount>(unreached_degrees, (n - count) * (n / count)) + n;
    if (frontier_degrees > sweep) {
      for (NodeId w = 0; w < n; ++w) {
        if (reached.test(w)) continue;
        for (NodeId v : g.neighbors(w)) {
          if (reached.test(v)) {
            reached.set(w);
            next.push_back(w);
            break;
          }
        }
      }
    } else {
      for (NodeId v : frontier)
        for (NodeId w : g.neighbors(v))
          if (reached.set_if_clear(w)) next.push_back(w);
    }
    count += next.size();
    frontier_degrees = 0;
    for (NodeId w : next) frontier_degrees += g.degree(w);
    unreached_degrees -= frontier_degrees;
    frontier.swap(next);
  }
  return count == n;
}

Graph::InducedSubgraph largest_component_subgraph(const Graph& g) {
  RADIO_EXPECTS(g.num_nodes() > 0);
  const Components comps = connected_components(g);
  const std::size_t target = comps.largest();
  std::vector<NodeId> nodes;
  nodes.reserve(comps.sizes[target]);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (comps.label[v] == target) nodes.push_back(v);
  return g.induced(nodes);
}

}  // namespace radio
