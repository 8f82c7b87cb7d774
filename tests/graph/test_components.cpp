// Connected components and giant-component extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/components.hpp"
#include "graph/random_graph.hpp"

namespace radio {
namespace {

TEST(Components, SingleComponentTriangle) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.sizes[0], 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Components, IsolatedNodesAreSingletons) {
  const Graph g = Graph::from_edges(4, {});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 4u);
  for (std::size_t s : c.sizes) EXPECT_EQ(s, 1u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Components, TwoComponents) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_EQ(c.label[3], c.label[4]);
  EXPECT_NE(c.label[0], c.label[3]);
}

TEST(Components, LabelsPartitionNodes) {
  Rng rng(1);
  const Graph g = generate_gnp({300, 0.004}, rng);  // below threshold: fragments
  const Components c = connected_components(g);
  std::vector<std::size_t> tally(c.count(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LT(c.label[v], c.count());
    ++tally[c.label[v]];
  }
  EXPECT_EQ(tally, c.sizes);
}

TEST(Components, EdgesNeverCrossComponents) {
  Rng rng(2);
  const Graph g = generate_gnp({300, 0.004}, rng);
  const Components c = connected_components(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (NodeId w : g.neighbors(v)) EXPECT_EQ(c.label[v], c.label[w]);
}

TEST(Components, LargestPicksMaximum) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {2, 3}, {3, 4}, {4, 5}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.sizes[c.largest()], 4u);
}

TEST(Components, LargestComponentSubgraph) {
  // Component A: path 0-1-2 (3 nodes); component B: edge 3-4.
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const Graph::InducedSubgraph sub = largest_component_subgraph(g);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_TRUE(is_connected(sub.graph));
  EXPECT_EQ(sub.original_id, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Components, SingletonGraphConnected) {
  const Graph g = Graph::from_edges(1, {});
  EXPECT_TRUE(is_connected(g));
  const Graph g0 = Graph::from_edges(0, {});
  EXPECT_TRUE(is_connected(g0));
}

TEST(Components, GnpAboveThresholdUsuallyConnected) {
  int connected = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng = Rng::for_stream(99, static_cast<std::uint64_t>(trial));
    const NodeId n = 400;
    const double p = 3.0 * std::log(static_cast<double>(n)) / n;
    if (is_connected(generate_gnp({n, p}, rng))) ++connected;
  }
  EXPECT_GE(connected, 9);  // w.h.p. regime
}

}  // namespace
}  // namespace radio
