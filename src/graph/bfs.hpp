// Breadth-first layer decomposition T_i(u) — the structure at the heart of
// the paper's analysis (Lemma 3) and of both broadcasting algorithms.
//
// Both traversals are templated on GraphBackend (graph/backend.hpp): the
// centralized builder runs them unchanged on the materialized Graph and on
// the on-demand ImplicitGnp sampler. Bodies live here; Graph instantiations
// are compiled once in bfs.cpp (extern template below).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/assert.hpp"

namespace radio {

/// T_i(u) for all i: per-node distance, a BFS parent (any one of the
/// neighbors one layer closer to the source), and the layers as explicit
/// node lists. Nodes unreachable from the source get distance kUnreachable
/// and do not appear in any layer.
struct LayerDecomposition {
  NodeId source = 0;
  std::vector<std::uint32_t> distance;  ///< per node; kUnreachable if not reached
  std::vector<NodeId> parent;           ///< per node; kInvalidNode for source/unreached
  std::vector<std::vector<NodeId>> layers;  ///< layers[i] == T_i(u); layers[0] == {u}

  /// Eccentricity of the source within its component (== layers.size() - 1).
  std::uint32_t eccentricity() const noexcept {
    return static_cast<std::uint32_t>(layers.size()) - 1;
  }

  /// Number of reachable nodes, including the source.
  std::size_t reachable_count() const noexcept;

  /// Index of the first layer with at least `threshold` nodes, or
  /// layers.size() if none. Theorem 5's phase switch looks for the first
  /// layer of size Ω(n/d).
  std::size_t first_layer_of_size(std::size_t threshold) const noexcept;
};

/// Layer-synchronous BFS from `source`. Each step expands the frontier
/// top-down (every frontier node's neighbors, in frontier order) or, when
/// the frontier's Σ deg exceeds the unreached nodes' Σ deg + n, bottom-up
/// (every unreached node scans its own neighbors for frontier members; the
/// Σ degs are kept exactly from 2m). The bottom-up step gives each node its
/// least-ranked frontier neighbor as parent and orders the layer by
/// (parent rank, id). That is the order a top-down step appends it in,
/// because neighbor lists ascend (the GraphBackend contract,
/// graph/backend.hpp), so distance, parent and every layer's order are the
/// same whichever kind of step ran.
template <GraphBackend G>
LayerDecomposition bfs_layers(const G& g, NodeId source) {
  RADIO_EXPECTS(source < g.num_nodes());
  const NodeId n = g.num_nodes();
  LayerDecomposition out;
  out.source = source;
  out.distance.assign(n, kUnreachable);
  out.parent.assign(n, kInvalidNode);

  out.distance[source] = 0;
  out.layers.push_back({source});
  EdgeCount frontier_degrees = g.degree(source);
  EdgeCount unreached_degrees = 2 * g.num_edges() - frontier_degrees;
  std::vector<std::uint32_t> rank;  // bottom-up: a frontier node's position
  std::vector<std::uint32_t> start;  // bottom-up: first slot per parent rank
  std::vector<NodeId> found;
  while (true) {
    const std::vector<NodeId>& frontier = out.layers.back();
    std::vector<NodeId> next;
    const auto depth = static_cast<std::uint32_t>(out.layers.size());
    if (frontier_degrees > unreached_degrees + n) {
      rank.resize(n);
      for (std::size_t i = 0; i < frontier.size(); ++i)
        rank[frontier[i]] = static_cast<std::uint32_t>(i);
      start.assign(frontier.size() + 1, 0);
      found.clear();
      for (NodeId w = 0; w < n; ++w) {
        if (out.distance[w] != kUnreachable) continue;
        // Branch-free: a frontier member offers its rank, any other node
        // all ones. Which neighbors are members is close to a coin flip,
        // so a branch here mispredicts about every fourth read.
        std::uint32_t best = kUnreachable;
        for (NodeId v : g.neighbors(w)) {
          const auto member =
              static_cast<std::uint32_t>(out.distance[v] == depth - 1);
          best = std::min(best, rank[v] | (member - 1));
        }
        if (best == kUnreachable) continue;
        out.distance[w] = depth;
        out.parent[w] = frontier[best];
        ++start[best + 1];
        found.push_back(w);
      }
      // Counting sort by parent rank; `found` ascends, so ties stay in id
      // order.
      for (std::size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
      next.resize(found.size());
      for (NodeId w : found) next[start[rank[out.parent[w]]]++] = w;
    } else {
      for (NodeId v : frontier) {
        for (NodeId w : g.neighbors(v)) {
          if (out.distance[w] == kUnreachable) {
            out.distance[w] = depth;
            out.parent[w] = v;
            next.push_back(w);
          }
        }
      }
    }
    if (next.empty()) break;
    frontier_degrees = 0;
    for (NodeId w : next) frontier_degrees += g.degree(w);
    unreached_degrees -= frontier_degrees;
    out.layers.push_back(std::move(next));
  }
  return out;
}

/// Distances only (cheaper when layers aren't needed).
template <GraphBackend G>
std::vector<std::uint32_t> bfs_distances(const G& g, NodeId source) {
  RADIO_EXPECTS(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  dist[source] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (NodeId v : frontier)
      for (NodeId w : g.neighbors(v))
        if (dist[w] == kUnreachable) {
          dist[w] = depth;
          next.push_back(w);
        }
    frontier.swap(next);
  }
  return dist;
}

extern template LayerDecomposition bfs_layers<Graph>(const Graph&, NodeId);
extern template std::vector<std::uint32_t> bfs_distances<Graph>(const Graph&,
                                                                NodeId);

}  // namespace radio
