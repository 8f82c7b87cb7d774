// Connected components and giant-component extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

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

// ---- is_connected (direction-optimizing) against connected_components.

/// n = 0 is connected by convention (no pair of nodes is separated), where
/// connected_components counts zero components.
void expect_matches_components(const Graph& g, const std::string& what) {
  const bool expected =
      g.num_nodes() == 0 || connected_components(g).count() == 1;
  EXPECT_EQ(is_connected(g), expected) << what;
}

TEST(IsConnected, MatchesComponentsAroundTheConnectivityThreshold) {
  int answers[2] = {0, 0};
  for (const NodeId n : {50u, 300u, 2000u}) {
    const double threshold = std::log(static_cast<double>(n)) / n;
    for (const double factor : {0.7, 0.9, 1.0, 1.1, 1.3, 2.0}) {
      for (std::uint64_t trial = 0; trial < 6; ++trial) {
        Rng rng = Rng::for_stream(0xC0DE + n, trial * 100 +
                                                  static_cast<std::uint64_t>(
                                                      factor * 10));
        const Graph g = generate_gnp({n, factor * threshold}, rng);
        expect_matches_components(g, "n=" + std::to_string(n) +
                                         " factor=" + std::to_string(factor));
        ++answers[is_connected(g) ? 1 : 0];
      }
    }
  }
  EXPECT_GT(answers[0], 0) << "no disconnected draw";
  EXPECT_GT(answers[1], 0) << "no connected draw";
}

TEST(IsConnected, MatchesComponentsOnConstructedGraphs) {
  Rng rng(7);
  const Graph dense = generate_gnp({300, 0.2}, rng);
  std::vector<Edge> edges = dense.edge_list();
  // The same dense graph with its first or its last node cut off.
  std::vector<Edge> without_first, without_last;
  for (const Edge& e : edges) {
    if (e.u != 0 && e.v != 0) without_first.push_back(e);
    if (e.u != 299 && e.v != 299) without_last.push_back(e);
  }
  expect_matches_components(dense, "dense");
  expect_matches_components(Graph::from_edges(300, without_first),
                            "isolated first node");
  expect_matches_components(Graph::from_edges(300, without_last),
                            "isolated last node");
  EXPECT_FALSE(is_connected(Graph::from_edges(300, without_first)));
  EXPECT_FALSE(is_connected(Graph::from_edges(300, without_last)));
  // Two dense components, interleaved ids.
  std::vector<Edge> two;
  for (const Edge& e : edges)
    if ((e.u % 2) == (e.v % 2)) two.push_back(e);
  expect_matches_components(Graph::from_edges(300, two), "two components");
  EXPECT_FALSE(is_connected(Graph::from_edges(300, two)));
  expect_matches_components(Graph::from_edges(0, {}), "n=0");
  expect_matches_components(Graph::from_edges(1, {}), "n=1");
  expect_matches_components(Graph::from_edges(2, {}), "n=2, no edge");
  expect_matches_components(Graph::from_edges(2, {{0, 1}}), "n=2, one edge");
}

}  // namespace
}  // namespace radio
