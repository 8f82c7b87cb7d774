// BFS layer decomposition: distances, layers, parents, helpers, and the
// direction-optimizing bfs_layers against a top-down reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"
#include "graph/topologies.hpp"

namespace radio {
namespace {

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(Bfs, SingleNode) {
  const Graph g = Graph::from_edges(1, {});
  const LayerDecomposition layers = bfs_layers(g, 0);
  ASSERT_EQ(layers.layers.size(), 1u);
  EXPECT_EQ(layers.layers[0], std::vector<NodeId>{0});
  EXPECT_EQ(layers.eccentricity(), 0u);
  EXPECT_EQ(layers.distance[0], 0u);
  EXPECT_EQ(layers.parent[0], kInvalidNode);
}

TEST(Bfs, PathDistances) {
  const Graph g = path(5);
  const LayerDecomposition layers = bfs_layers(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(layers.distance[v], v);
  EXPECT_EQ(layers.eccentricity(), 4u);
  ASSERT_EQ(layers.layers.size(), 5u);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(layers.layers[v], std::vector<NodeId>{v});
}

TEST(Bfs, PathFromMiddle) {
  const Graph g = path(5);
  const LayerDecomposition layers = bfs_layers(g, 2);
  EXPECT_EQ(layers.eccentricity(), 2u);
  EXPECT_EQ(layers.layers[1].size(), 2u);  // nodes 1 and 3
  EXPECT_EQ(layers.layers[2].size(), 2u);  // nodes 0 and 4
}

TEST(Bfs, ParentsAreOneLayerCloser) {
  Rng rng(1);
  const Graph g = generate_gnp({300, 0.03}, rng);
  const LayerDecomposition layers = bfs_layers(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 0 || layers.distance[v] == kUnreachable) continue;
    const NodeId parent = layers.parent[v];
    ASSERT_NE(parent, kInvalidNode);
    EXPECT_EQ(layers.distance[parent] + 1, layers.distance[v]);
    EXPECT_TRUE(g.has_edge(parent, v));
  }
}

TEST(Bfs, UnreachableNodesFlagged) {
  // Two components: triangle {0,1,2} and edge {3,4}.
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}});
  const LayerDecomposition layers = bfs_layers(g, 0);
  EXPECT_EQ(layers.distance[3], kUnreachable);
  EXPECT_EQ(layers.distance[4], kUnreachable);
  EXPECT_EQ(layers.reachable_count(), 3u);
  EXPECT_EQ(layers.parent[3], kInvalidNode);
}

TEST(Bfs, LayersPartitionReachableNodes) {
  Rng rng(2);
  const Graph g = generate_gnp({500, 0.02}, rng);
  const LayerDecomposition layers = bfs_layers(g, 7);
  std::vector<int> seen(g.num_nodes(), 0);
  for (const auto& layer : layers.layers)
    for (NodeId v : layer) ++seen[v];
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (layers.distance[v] == kUnreachable)
      EXPECT_EQ(seen[v], 0);
    else
      EXPECT_EQ(seen[v], 1);
  }
}

TEST(Bfs, DistancesOnlyMatchesFullDecomposition) {
  Rng rng(3);
  const Graph g = generate_gnp({400, 0.02}, rng);
  const LayerDecomposition layers = bfs_layers(g, 11);
  const std::vector<std::uint32_t> dist = bfs_distances(g, 11);
  EXPECT_EQ(dist, layers.distance);
}

TEST(Bfs, TriangleInequalityOverEdges) {
  Rng rng(4);
  const Graph g = generate_gnp({400, 0.02}, rng);
  const std::vector<std::uint32_t> dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kUnreachable) continue;
    for (NodeId w : g.neighbors(v)) {
      ASSERT_NE(dist[w], kUnreachable);
      EXPECT_LE(dist[w], dist[v] + 1);
      EXPECT_GE(dist[w] + 1, dist[v]);
    }
  }
}

TEST(Bfs, FirstLayerOfSize) {
  const Graph g = path(4);
  const LayerDecomposition layers = bfs_layers(g, 0);
  EXPECT_EQ(layers.first_layer_of_size(1), 0u);
  EXPECT_EQ(layers.first_layer_of_size(2), layers.layers.size());
}

TEST(Bfs, StarLayers) {
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < 8; ++leaf) edges.push_back({0, leaf});
  const Graph g = Graph::from_edges(8, edges);
  const LayerDecomposition from_center = bfs_layers(g, 0);
  EXPECT_EQ(from_center.eccentricity(), 1u);
  EXPECT_EQ(from_center.layers[1].size(), 7u);
  const LayerDecomposition from_leaf = bfs_layers(g, 3);
  EXPECT_EQ(from_leaf.eccentricity(), 2u);
  EXPECT_EQ(from_leaf.layers[1], std::vector<NodeId>{0});
  EXPECT_EQ(from_leaf.layers[2].size(), 6u);
}

// ---- bfs_layers against the top-down loop it replaced.

/// The layer-synchronous top-down BFS, kept here as the oracle: a frontier
/// node's unreached neighbors are appended in frontier order, each with
/// that node as parent.
template <GraphBackend G>
LayerDecomposition top_down_layers(const G& g, NodeId source) {
  LayerDecomposition out;
  out.source = source;
  out.distance.assign(g.num_nodes(), kUnreachable);
  out.parent.assign(g.num_nodes(), kInvalidNode);
  out.distance[source] = 0;
  out.layers.push_back({source});
  while (true) {
    const std::vector<NodeId>& frontier = out.layers.back();
    std::vector<NodeId> next;
    const auto depth = static_cast<std::uint32_t>(out.layers.size());
    for (NodeId v : frontier) {
      for (NodeId w : g.neighbors(v)) {
        if (out.distance[w] == kUnreachable) {
          out.distance[w] = depth;
          out.parent[w] = v;
          next.push_back(w);
        }
      }
    }
    if (next.empty()) break;
    out.layers.push_back(std::move(next));
  }
  return out;
}

/// How many of bfs_layers' steps (one per layer, the last finding nothing)
/// its rule runs bottom-up: Σ deg(frontier) > Σ deg(unreached) + n.
template <GraphBackend G>
int bottom_up_steps(const G& g, const LayerDecomposition& layers) {
  EdgeCount unreached = 2 * g.num_edges();
  int steps = 0;
  for (const std::vector<NodeId>& layer : layers.layers) {
    EdgeCount frontier = 0;
    for (NodeId v : layer) frontier += g.degree(v);
    unreached -= frontier;
    steps += frontier > unreached + g.num_nodes() ? 1 : 0;
  }
  return steps;
}

/// Checks bfs_layers(g, source) against the reference field by field and
/// returns how many of its steps ran bottom-up.
template <GraphBackend G>
int expect_same_layers(const G& g, NodeId source, const std::string& what) {
  const LayerDecomposition ref = top_down_layers(g, source);
  const LayerDecomposition got = bfs_layers(g, source);
  EXPECT_EQ(got.source, ref.source) << what;
  EXPECT_EQ(got.distance, ref.distance) << what;
  EXPECT_EQ(got.parent, ref.parent) << what;
  EXPECT_EQ(got.layers.size(), ref.layers.size()) << what;
  for (std::size_t i = 0; i < std::min(got.layers.size(), ref.layers.size());
       ++i)
    EXPECT_EQ(got.layers[i], ref.layers[i]) << what << ", layer " << i;
  return bottom_up_steps(g, ref);
}

TEST(BfsDirectionOptimizing, MatchesTopDownOnGnpAcrossDegrees) {
  int bottom_up = 0;
  int top_down = 0;
  for (const NodeId n : {64u, 512u, 4096u}) {
    const double ln_n = std::log(static_cast<double>(n));
    for (const double d : {3.0, 8.0, ln_n * ln_n, n / 8.0, n / 2.0}) {
      if (d > n / 2.0) continue;
      Rng rng = Rng::for_stream(0xBF5, n * 1000 + static_cast<NodeId>(d));
      const Graph g = generate_gnp(GnpParams::with_degree(n, d), rng);
      for (const NodeId source : {NodeId{0}, n / 3, n - 1}) {
        const int steps = expect_same_layers(
            g, source,
            "n=" + std::to_string(n) + " d=" + std::to_string(d) +
                " source=" + std::to_string(source));
        bottom_up += steps;
        top_down += static_cast<int>(bfs_layers(g, source).layers.size()) -
                    steps;
      }
    }
  }
  EXPECT_GT(bottom_up, 0) << "no step ran bottom-up";
  EXPECT_GT(top_down, 0) << "no step ran top-down";
}

TEST(BfsDirectionOptimizing, MatchesTopDownOnDisconnectedGraphs) {
  // Below the connectivity threshold: many components and isolated nodes.
  for (const double d : {0.5, 1.0, 2.0}) {
    Rng rng = Rng::for_stream(0xBF6, static_cast<std::uint64_t>(d * 10));
    const Graph g = generate_gnp(GnpParams::with_degree(700, d), rng);
    for (const NodeId source : {NodeId{0}, NodeId{350}, NodeId{699}})
      expect_same_layers(g, source, "sparse d=" + std::to_string(d));
  }
  // A dense 200-node component and a dense 20-node one with no edge
  // between them. From the large one, its last frontier outweighs what is
  // left unreached, so bottom-up steps also scan the unreachable component.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 220; ++u)
    for (NodeId v = u + 1; v < 220; ++v)
      if ((u < 200) == (v < 200) && (u * 7 + v * 3) % 4 != 0)
        edges.push_back({u, v});
  const Graph two = Graph::from_edges(220, edges);
  EXPECT_GT(expect_same_layers(two, 5, "large component"), 0);
  expect_same_layers(two, 210, "small component");
}

TEST(BfsDirectionOptimizing, MatchesTopDownOnStructuredTopologies) {
  expect_same_layers(path(9), 0, "path from an end");
  expect_same_layers(path(9), 4, "path from the middle");
  std::vector<Edge> star;
  for (NodeId leaf = 1; leaf < 50; ++leaf) star.push_back({0, leaf});
  expect_same_layers(Graph::from_edges(50, star), 0, "star from the centre");
  expect_same_layers(Graph::from_edges(50, star), 17, "star from a leaf");
  std::vector<Edge> grid;  // 12 × 9, no wrap-around
  for (NodeId r = 0; r < 12; ++r)
    for (NodeId c = 0; c < 9; ++c) {
      if (c + 1 < 9) grid.push_back({r * 9 + c, r * 9 + c + 1});
      if (r + 1 < 12) grid.push_back({r * 9 + c, (r + 1) * 9 + c});
    }
  expect_same_layers(Graph::from_edges(108, grid), 0, "grid from a corner");
  expect_same_layers(Graph::from_edges(108, grid), 58, "grid from inside");
  expect_same_layers(make_torus(7, 11), 3, "torus");
  expect_same_layers(make_ring(31), 30, "ring");
  expect_same_layers(make_hypercube(8), 5, "hypercube");
  expect_same_layers(make_complete_tree(3, 5), 100, "tree from a leaf");
  expect_same_layers(Graph::from_edges(1, {}), 0, "single node");
}

TEST(BfsDirectionOptimizing, ImplicitGnpMatchesItsMaterializedTwin) {
  const ImplicitGnp implicit(3000, 0.02, 91);
  const Graph twin = implicit.materialize();
  for (const NodeId source : {NodeId{0}, NodeId{1234}}) {
    EXPECT_GT(expect_same_layers(implicit, source, "implicit"), 0);
    const LayerDecomposition a = bfs_layers(implicit, source);
    const LayerDecomposition b = bfs_layers(twin, source);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.layers, b.layers);
  }
}

}  // namespace
}  // namespace radio
