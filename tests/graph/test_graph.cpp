// CSR graph: construction, dedup, neighbor queries, edge lists, induced
// subgraphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"

namespace radio {
namespace {

Graph triangle() {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  return Graph::from_edges(3, edges);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, IsolatedNodes) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges = {{2, 0}, {2, 3}, {2, 1}, {2, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, DuplicateEdgesCollapsed) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, HasEdgeSymmetric) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, HasEdgeMissingAndOutOfRange) {
  const Graph g = Graph::from_edges(4, {{0, 1}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 99));
  EXPECT_FALSE(g.has_edge(99, 0));
}

TEST(Graph, EdgeListRoundTrip) {
  const std::vector<Edge> edges = {{0, 3}, {1, 2}, {0, 1}};
  const Graph g = Graph::from_edges(4, edges);
  const std::vector<Edge> out = g.edge_list();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Edge{0, 1}));
  EXPECT_EQ(out[1], (Edge{0, 3}));
  EXPECT_EQ(out[2], (Edge{1, 2}));
  // Rebuilding from the list yields the same structure.
  const Graph h = Graph::from_edges(4, out);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), h.degree(v));
}

TEST(Graph, PathGraphDegrees) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Graph, StarGraphCenter) {
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < 10; ++leaf) edges.push_back({0, leaf});
  const Graph g = Graph::from_edges(10, edges);
  EXPECT_EQ(g.degree(0), 9u);
  for (NodeId leaf = 1; leaf < 10; ++leaf) {
    EXPECT_EQ(g.degree(leaf), 1u);
    EXPECT_EQ(g.neighbors(leaf)[0], 0u);
  }
}

TEST(Graph, InducedSubgraphOfTriangle) {
  const Graph g = triangle();
  const std::vector<NodeId> keep = {0, 2};
  const Graph::InducedSubgraph sub = g.induced(keep);
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.original_id[0], 0u);
  EXPECT_EQ(sub.original_id[1], 2u);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
}

TEST(Graph, InducedSubgraphPreservesInternalEdgesOnly) {
  // Path 0-1-2-3; induce {0, 1, 3}: edge 0-1 kept, 2's edges dropped.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<NodeId> keep = {0, 1, 3};
  const Graph::InducedSubgraph sub = g.induced(keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
}

TEST(Graph, InducedEmptySelection) {
  const Graph g = triangle();
  const Graph::InducedSubgraph sub = g.induced({});
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(GraphDeathTest, SelfLoopRejected) {
  const std::vector<Edge> edges = {{1, 1}};
  EXPECT_DEATH((void)Graph::from_edges(3, edges), "precondition");
}

TEST(GraphDeathTest, OutOfRangeEndpointRejected) {
  const std::vector<Edge> edges = {{0, 7}};
  EXPECT_DEATH((void)Graph::from_edges(3, edges), "precondition");
}

TEST(GraphDeathTest, InducedDuplicateRejected) {
  const Graph g = triangle();
  const std::vector<NodeId> dup = {0, 0};
  EXPECT_DEATH((void)g.induced(dup), "precondition");
}

}  // namespace
}  // namespace radio
