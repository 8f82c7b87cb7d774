// ImplicitGnp: the on-demand G(n,p) backend must be indistinguishable from
// its materialized twin — same seed, same edges, same neighbor queries, same
// BFS layers — under repeated and out-of-order access, and byte-stable
// across instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "core/centralized.hpp"
#include "graph/bfs.hpp"
#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"

namespace radio {
namespace {

std::vector<NodeId> to_vector(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

TEST(ImplicitGnp, MatchesMaterializedTwin) {
  const ImplicitGnp g(400, 0.03, 91);
  const Graph twin = g.materialize();
  ASSERT_EQ(g.num_nodes(), twin.num_nodes());
  EXPECT_EQ(g.num_edges(), twin.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.degree(v), twin.degree(v));
    EXPECT_EQ(to_vector(g.neighbors(v)), to_vector(twin.neighbors(v)));
  }
}

TEST(ImplicitGnp, ConcurrentFirstQueriesShareOneIndex) {
  // Copies share one lazily built index. Four threads race to its first
  // query, each on its own copy: one builds it under call_once and
  // publishes it, the others wait or read the published pointer, and every
  // thread must see the complete CSR (ThreadSanitizer runs this suite).
  const ImplicitGnp g(3000, 0.004, 97);
  const Graph twin = ImplicitGnp(3000, 0.004, 97).materialize();
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t, copy = g] {
      for (NodeId v = static_cast<NodeId>(t); v < copy.num_nodes(); ++v)
        if (to_vector(copy.neighbors(v)) != to_vector(twin.neighbors(v)) ||
            copy.degree(v) != twin.degree(v))
          ++mismatches[static_cast<std::size_t>(t)];
      if (copy.num_edges() != twin.num_edges())
        ++mismatches[static_cast<std::size_t>(t)];
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

TEST(ImplicitGnp, MatchesGraphBuiltFromForwardStreams) {
  // Independent reconstruction: the forward streams alone define the edge
  // set; from_edges sorting/symmetrizing them must reproduce the index.
  const NodeId n = 300;
  const ImplicitGnp g(n, 0.05, 92);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v)
    for (NodeId w : g.forward_neighbors(v)) edges.push_back(Edge{v, w});
  const Graph rebuilt = Graph::from_edges(n, edges);
  EXPECT_EQ(g.num_edges(), rebuilt.num_edges());
  for (NodeId v = 0; v < n; ++v)
    EXPECT_EQ(to_vector(g.neighbors(v)), to_vector(rebuilt.neighbors(v)));
}

TEST(ImplicitGnp, RepeatedAndOutOfOrderQueriesAreStable) {
  const ImplicitGnp g(250, 0.04, 93);
  // Query high nodes first, then low, then repeat: memoization must not
  // depend on access order.
  const std::vector<NodeId> first_pass = to_vector(g.neighbors(249));
  const std::vector<NodeId> low = to_vector(g.neighbors(3));
  EXPECT_EQ(to_vector(g.neighbors(249)), first_pass);
  EXPECT_EQ(to_vector(g.neighbors(3)), low);
  const NodeId deg = g.degree(100);
  EXPECT_EQ(g.degree(100), deg);
  EXPECT_EQ(g.neighbors(100).size(), static_cast<std::size_t>(deg));
}

TEST(ImplicitGnp, SameSeedIsByteStableAcrossInstances) {
  const ImplicitGnp a(350, 0.02, 94);
  const ImplicitGnp b(350, 0.02, 94);
  // Touch b in a different order than a before comparing.
  (void)b.neighbors(349);
  for (NodeId v = 0; v < 350; ++v) {
    EXPECT_EQ(a.forward_neighbors(v), b.forward_neighbors(v));
    EXPECT_EQ(to_vector(a.neighbors(v)), to_vector(b.neighbors(v)));
  }
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

TEST(ImplicitGnp, ForwardNeighborsPureBeforeAndAfterIndexBuild) {
  const ImplicitGnp g(200, 0.06, 95);
  const std::vector<NodeId> before = g.forward_neighbors(17);
  (void)g.num_edges();  // forces the index build
  EXPECT_EQ(g.forward_neighbors(17), before);
}

TEST(ImplicitGnp, DifferentSeedsDiffer) {
  const ImplicitGnp a(350, 0.05, 96);
  const ImplicitGnp b(350, 0.05, 97);
  EXPECT_NE(a.materialize().edge_list(), b.materialize().edge_list());
}

TEST(ImplicitGnp, HasEdgeAgreesWithNeighborsBothDirections) {
  const ImplicitGnp g(120, 0.1, 98);
  const Graph twin = g.materialize();
  for (NodeId u = 0; u < 120; ++u)
    for (NodeId v = 0; v < 120; ++v)
      EXPECT_EQ(g.has_edge(u, v), twin.has_edge(u, v));
}

TEST(ImplicitGnp, EdgeCountConcentrates) {
  const NodeId n = 2000;
  const double p = 0.01;
  const ImplicitGnp g(n, p, 99);
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), p * pairs,
              6.0 * std::sqrt(pairs * p * (1.0 - p)));
}

TEST(ImplicitGnp, EdgeCases) {
  const ImplicitGnp empty(100, 0.0, 1);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(empty.degree(50), 0u);

  const ImplicitGnp complete(40, 1.0, 2);
  EXPECT_EQ(complete.num_edges(), 40u * 39u / 2u);
  for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(complete.degree(v), 39u);

  const ImplicitGnp g0(0, 0.5, 3);
  EXPECT_EQ(g0.num_nodes(), 0u);
  EXPECT_EQ(g0.num_edges(), 0u);

  const ImplicitGnp g1(1, 0.5, 4);
  EXPECT_EQ(g1.num_edges(), 0u);

  const ImplicitGnp g2(2, 1.0, 5);
  EXPECT_EQ(g2.num_edges(), 1u);
  EXPECT_TRUE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(1, 0));
}

TEST(ImplicitGnp, BfsLayersMatchMaterialized) {
  const ImplicitGnp g(500, 0.02, 100);
  const Graph twin = g.materialize();
  const LayerDecomposition li = bfs_layers(g, 0);
  const LayerDecomposition lm = bfs_layers(twin, 0);
  EXPECT_EQ(li.distance, lm.distance);
  EXPECT_EQ(li.layers, lm.layers);
  EXPECT_EQ(bfs_distances(g, 7), bfs_distances(twin, 7));
}

TEST(ImplicitGnp, CentralizedBuilderMatchesMaterialized) {
  // The full Theorem-5 builder run on the implicit backend must emit the
  // exact schedule it emits on the materialized twin when fed the same RNG
  // stream: every algorithm layer above the backend is representation-blind.
  const NodeId n = 600;
  const double d = 20.0;
  const ImplicitGnp g(n, d / static_cast<double>(n - 1), 101);
  const Graph twin = g.materialize();

  Rng ri(777), rm(777);
  const CentralizedResult on_implicit =
      build_centralized_schedule(g, 0, d, ri);
  const CentralizedResult on_graph =
      build_centralized_schedule(twin, 0, d, rm);

  EXPECT_EQ(on_implicit.schedule.rounds, on_graph.schedule.rounds);
  EXPECT_EQ(on_implicit.schedule.phase_of, on_graph.schedule.phase_of);
  EXPECT_EQ(on_implicit.report.completed, on_graph.report.completed);
  EXPECT_EQ(on_implicit.report.total_rounds, on_graph.report.total_rounds);
}

}  // namespace
}  // namespace radio
