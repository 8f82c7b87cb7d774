// Structured topology generators: exact degree/size/diameter properties.
#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/degree.hpp"
#include "graph/diameter.hpp"
#include "graph/topologies.hpp"

namespace radio {
namespace {

TEST(Hypercube, DimensionsThree) {
  const Graph g = make_hypercube(3);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 12u);  // n*d/2 = 8*3/2
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 3u);
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_EQ(exact_diameter(g), 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Hypercube, DimensionOneIsAnEdge) {
  const Graph g = make_hypercube(1);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Hypercube, AdjacencyIsSingleBitFlip) {
  // Every edge flips one bit, so edges join even-popcount ids to odd ones:
  // the cube is bipartite and has no triangles.
  for (const unsigned dim : {3u, 4u}) {
    const Graph g = make_hypercube(dim);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      for (NodeId w : g.neighbors(v)) {
        const NodeId diff = v ^ w;
        EXPECT_EQ(diff & (diff - 1), 0u) << "dim " << dim;  // power of two
        EXPECT_NE(diff, 0u) << "dim " << dim;
      }
  }
}

TEST(Torus, FourRegularAndConnected) {
  const Graph g = make_torus(6, 8);
  EXPECT_EQ(g.num_nodes(), 48u);
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 4u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(g.num_edges(), 96u);  // 2 per node
  EXPECT_TRUE(is_connected(g));
}

TEST(Torus, DiameterIsSumOfHalfSides) {
  const Graph g = make_torus(6, 6);
  EXPECT_EQ(exact_diameter(g), 6u);  // 3 + 3
}

TEST(Torus, DegenerateTwoWideCollapsesWrapEdges) {
  const Graph g = make_torus(2, 4);
  // Row wrap for 2 rows duplicates the direct edge; degree is 3 not 4.
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Ring, CycleProperties) {
  const Graph g = make_ring(10);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 10u);
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 2u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_EQ(exact_diameter(g), 5u);
}

TEST(Ring, OddCycle) {
  const Graph g = make_ring(7);
  EXPECT_EQ(exact_diameter(g), 3u);
}

TEST(CompleteTree, BinaryDepthThree) {
  const Graph g = make_complete_tree(2, 3);
  EXPECT_EQ(g.num_nodes(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 6u);  // leaf to leaf through the root
  // Root has degree 2; internal nodes 3; leaves 1.
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.degree(14), 1u);
}

TEST(CompleteTree, TernaryDepthTwo) {
  const Graph g = make_complete_tree(3, 2);
  EXPECT_EQ(g.num_nodes(), 13u);  // 1 + 3 + 9
  EXPECT_EQ(g.num_edges(), 12u);
}

TEST(CompleteTree, DepthZeroIsSingleNode) {
  const Graph g = make_complete_tree(2, 0);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(RandomRegular, ExactDegrees) {
  Rng rng(1);
  for (NodeId k : {2, 4, 8}) {
    const Graph g = make_random_regular(200, k, rng);
    const DegreeStats s = degree_stats(g);
    EXPECT_EQ(s.min_degree, k);
    EXPECT_EQ(s.max_degree, k);
    EXPECT_EQ(g.num_edges(), 100ull * k);
  }
}

TEST(RandomRegular, UsuallyConnectedForKAtLeastThree) {
  int connected = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng = Rng::for_stream(3, static_cast<std::uint64_t>(trial));
    if (is_connected(make_random_regular(300, 4, rng))) ++connected;
  }
  EXPECT_GE(connected, 7);  // k-regular, k>=3: connected w.h.p.
}

TEST(RandomRegular, Deterministic) {
  Rng a(5), b(5);
  const Graph g1 = make_random_regular(100, 6, a);
  const Graph g2 = make_random_regular(100, 6, b);
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

TEST(RandomRegularDeathTest, OddStubTotalRejected) {
  Rng rng(7);
  EXPECT_DEATH(make_random_regular(5, 3, rng), "precondition");
}

TEST(TopologyDeathTest, InvalidParameters) {
  EXPECT_DEATH(make_hypercube(0), "precondition");
  EXPECT_DEATH(make_ring(2), "precondition");
  EXPECT_DEATH(make_torus(1, 5), "precondition");
  EXPECT_DEATH(make_complete_tree(1, 3), "precondition");
}

}  // namespace
}  // namespace radio
