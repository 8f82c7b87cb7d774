// Coverings and matchings (Definition 1, Proposition 2, Lemma 4): verifiers
// on hand-built bipartite structures, constructions on random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/covering.hpp"
#include "graph/random_graph.hpp"

namespace radio {
namespace {

// Hand-built bipartite-ish host graph:
//   X = {0, 1, 2},  Y = {3, 4, 5}
//   0-3, 0-4, 1-4, 2-5
Graph host() {
  return Graph::from_edges(6, {{0, 3}, {0, 4}, {1, 4}, {2, 5}});
}

const std::vector<NodeId> kX = {0, 1, 2};
const std::vector<NodeId> kY = {3, 4, 5};

TEST(Verifiers, IsCoveringAcceptsFullCover) {
  const Graph g = host();
  const std::vector<NodeId> partial = {0, 2};
  EXPECT_TRUE(is_covering(g, kX, kY));
  EXPECT_TRUE(is_covering(g, partial, kY));
}

TEST(Verifiers, IsCoveringRejectsGaps) {
  const Graph g = host();
  const std::vector<NodeId> gap = {0, 1};
  EXPECT_FALSE(is_covering(g, gap, kY));  // 5 uncovered
  EXPECT_FALSE(is_covering(g, std::vector<NodeId>{}, kY));
}

TEST(Verifiers, IsMinimalCovering) {
  const Graph g = host();
  const std::vector<NodeId> minimal = {0, 2};
  EXPECT_TRUE(is_minimal_covering(g, minimal, kY));
  // {0, 1, 2} covers but 1 is redundant (4 also covered by 0).
  EXPECT_FALSE(is_minimal_covering(g, kX, kY));
}

TEST(Verifiers, IsIndependentCovering) {
  const Graph g = host();
  const std::vector<NodeId> good = {0, 2};
  const std::vector<NodeId> partial = {0};
  EXPECT_TRUE(is_independent_covering(g, good, kY));  // each y exactly once
  // With {0, 1, 2}: node 4 has two cover neighbors.
  EXPECT_FALSE(is_independent_covering(g, kX, kY));
  // Not even a covering:
  EXPECT_FALSE(is_independent_covering(g, partial, kY));
}

TEST(Verifiers, IndependentMatchingAccepts) {
  const Graph g = host();
  const std::vector<MatchPair> pairs = {{0, 3}, {2, 5}};
  EXPECT_TRUE(is_independent_matching(g, pairs));
}

TEST(Verifiers, IndependentMatchingRejectsCrossEdge) {
  const Graph g = host();
  // (0,4) and (1,?)... 0 is adjacent to 4; try pairs (0,3),(1,4):
  // cross edge 0-4 exists -> not independent.
  const std::vector<MatchPair> pairs = {{0, 3}, {1, 4}};
  EXPECT_FALSE(is_independent_matching(g, pairs));
}

TEST(Verifiers, IndependentMatchingRejectsNonEdges) {
  const Graph g = host();
  const std::vector<MatchPair> pairs = {{2, 3}};  // not an edge
  EXPECT_FALSE(is_independent_matching(g, pairs));
}

TEST(Verifiers, IndependentMatchingRejectsRepeatedEndpoints) {
  const Graph g = host();
  const std::vector<MatchPair> repeat_x = {{0, 3}, {0, 4}};
  const std::vector<MatchPair> repeat_y = {{0, 4}, {1, 4}};
  EXPECT_FALSE(is_independent_matching(g, repeat_x));
  EXPECT_FALSE(is_independent_matching(g, repeat_y));
}

TEST(Verifiers, EmptyMatchingIsIndependent) {
  const Graph g = host();
  EXPECT_TRUE(is_independent_matching(g, {}));
}

TEST(GreedyMinimalCover, CoversAndIsMinimal) {
  const Graph g = host();
  const std::vector<NodeId> cover = greedy_minimal_cover(g, kX, kY);
  ASSERT_FALSE(cover.empty());
  EXPECT_TRUE(is_minimal_covering(g, cover, kY));
}

TEST(GreedyMinimalCover, FailsWhenUncoverable) {
  // Node 5 has no neighbor in X' = {0, 1}.
  const Graph g = host();
  const std::vector<NodeId> x = {0, 1};
  EXPECT_TRUE(greedy_minimal_cover(g, x, kY).empty());
}

TEST(GreedyMinimalCover, EmptyTargetsGiveEmptyCover) {
  const Graph g = host();
  EXPECT_TRUE(greedy_minimal_cover(g, kX, {}).empty());
}

TEST(Proposition2, MatchingFromMinimalCoverHandBuilt) {
  const Graph g = host();
  const std::vector<NodeId> cover = {0, 2};
  const std::vector<MatchPair> pairs = matching_from_minimal_cover(g, cover, kY);
  EXPECT_EQ(pairs.size(), cover.size());
  EXPECT_TRUE(is_independent_matching(g, pairs));
}

TEST(Proposition2, HoldsOnRandomGraphs) {
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng = Rng::for_stream(31, static_cast<std::uint64_t>(trial));
    const Graph g = generate_gnp({300, 0.05}, rng);
    std::vector<NodeId> x, y;
    for (NodeId v = 0; v < 150; ++v) x.push_back(v);
    for (NodeId v = 150; v < 200; ++v) y.push_back(v);
    const std::vector<NodeId> cover = greedy_minimal_cover(g, x, y);
    if (cover.empty()) continue;  // uncoverable draw
    ASSERT_TRUE(is_minimal_covering(g, cover, y));
    const std::vector<MatchPair> pairs = matching_from_minimal_cover(g, cover, y);
    EXPECT_EQ(pairs.size(), cover.size());
    EXPECT_TRUE(is_independent_matching(g, pairs));
  }
}

TEST(SampledCover, RateZeroCoversNothing) {
  const Graph g = host();
  Rng rng(1);
  const SampledCover cover = sample_independent_cover(g, kX, kY, 0.0, rng);
  EXPECT_TRUE(cover.sample.empty());
  EXPECT_TRUE(cover.covered.empty());
}

TEST(SampledCover, RateOneTakesAllOfX) {
  const Graph g = host();
  Rng rng(2);
  const SampledCover cover = sample_independent_cover(g, kX, kY, 1.0, rng);
  EXPECT_EQ(cover.sample, kX);
  // With all of X transmitting: 3 hears {0}, 4 hears {0,1} (collision),
  // 5 hears {2}.
  EXPECT_EQ(cover.covered, (std::vector<NodeId>{3, 5}));
}

TEST(SampledCover, CoveredTargetsHaveExactlyOneSampleNeighbor) {
  Rng rng(3);
  const Graph g = generate_gnp({500, 0.04}, rng);
  std::vector<NodeId> x, y;
  for (NodeId v = 0; v < 300; ++v) x.push_back(v);
  for (NodeId v = 300; v < 500; ++v) y.push_back(v);
  const SampledCover cover = sample_independent_cover(g, x, y, 0.05, rng);
  const Bitset member = make_membership(g.num_nodes(), cover.sample);
  for (NodeId t : cover.covered) {
    std::uint32_t hits = 0;
    for (NodeId w : g.neighbors(t))
      if (member.test(w)) ++hits;
    EXPECT_EQ(hits, 1u);
  }
  // The sample is an independent covering of exactly the covered set.
  EXPECT_TRUE(is_independent_covering(g, cover.sample, cover.covered));
}

TEST(SampledCover, Lemma4FractionIsConstant) {
  // |X| = 0.6n, rate 1/d: expect a constant fraction of Y covered.
  Rng rng(4);
  const NodeId n = 2000;
  const double d = 30.0;
  const Graph g = generate_gnp(GnpParams::with_degree(n, d), rng);
  std::vector<NodeId> x, y;
  for (NodeId v = 0; v < 1200; ++v) x.push_back(v);
  for (NodeId v = 1200; v < 2000; ++v) y.push_back(v);
  const SampledCover cover = sample_independent_cover(g, x, y, 1.0 / d, rng);
  const double fraction =
      static_cast<double>(cover.covered.size()) / static_cast<double>(y.size());
  EXPECT_GT(fraction, 0.15);  // lambda*e^-lambda with lambda=0.6 is ~0.33
  EXPECT_LT(fraction, 0.6);
}

TEST(PrivateMatching, HandBuiltCompleteCase) {
  const Graph g = host();
  // Y = {3, 5}: 0 has neighbors {3,4} — with Y={3,5}, 0's Y-neighbors = {3}
  // only, so 0 is private to 3; 2 private to 5.
  const std::vector<NodeId> y = {3, 5};
  const FullMatching m = private_neighbor_matching(g, kX, y);
  ASSERT_TRUE(m.complete);
  EXPECT_EQ(m.pairs.size(), 2u);
  EXPECT_TRUE(is_independent_matching(g, m.pairs));
}

TEST(PrivateMatching, FailsWhenNoPrivateNeighborExists) {
  // Both y's share their only informant: 0-1, 0-2 with X={0}, Y={1,2}.
  const Graph g = Graph::from_edges(3, {{0, 1}, {0, 2}});
  const std::vector<NodeId> x = {0};
  const std::vector<NodeId> y = {1, 2};
  const FullMatching m = private_neighbor_matching(g, x, y);
  EXPECT_FALSE(m.complete);
}

TEST(PrivateMatching, SucceedsInLemma4Regime) {
  // |X|/|Y| well above d^2.
  Rng rng(5);
  const NodeId n = 3000;
  const double d = 12.0;
  const Graph g = generate_gnp(GnpParams::with_degree(n, d), rng);
  std::vector<NodeId> x, y;
  for (NodeId v = 0; v < 2900; ++v) x.push_back(v);
  for (NodeId v = 2900; v < 2910; ++v) y.push_back(v);  // |X|/|Y| = 290 >> d^2/2
  const FullMatching m = private_neighbor_matching(g, x, y);
  ASSERT_TRUE(m.complete);
  EXPECT_EQ(m.pairs.size(), y.size());
  EXPECT_TRUE(is_independent_matching(g, m.pairs));
}

TEST(Membership, MakeMembershipAndCounts) {
  const Graph g = host();
  const std::vector<NodeId> members = {0, 2};
  const Bitset member = make_membership(6, members);
  EXPECT_TRUE(member.test(0));
  EXPECT_FALSE(member.test(1));
  const std::vector<std::uint32_t> counts = neighbor_counts(g, kY, member);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 1, 1}));
}

}  // namespace
}  // namespace radio
