// Radio gossiping: session semantics, knowledge merging, and the broadcast
// protocols run as gossip schedulers on the session's everyone-informed view.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/workload.hpp"
#include "gossip/gossip_session.hpp"
#include "protocols/decay.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/uniform_gossip.hpp"

namespace radio {
namespace {

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(GossipSession, InitialKnowledgeIsOwnRumor) {
  const Graph g = path(4);
  GossipSession session(g);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(session.knows(v, v));
    EXPECT_EQ(session.knowledge_count(v), 1u);
    for (NodeId r = 0; r < 4; ++r) {
      if (r != v) {
        EXPECT_FALSE(session.knows(v, r));
      }
    }
  }
  EXPECT_EQ(session.total_knowledge(), 4u);
  EXPECT_FALSE(session.complete());
  EXPECT_DOUBLE_EQ(session.coverage(), 0.25);
}

TEST(GossipSession, UniqueTransmitterTransfersWholeSet) {
  const Graph g = path(3);
  GossipSession session(g);
  // 1 learns rumor 0, then transmits to both 0 and 2: each learns 1's whole
  // set {0, 1}.
  session.step(std::vector<NodeId>{0});
  EXPECT_TRUE(session.knows(1, 0));
  session.step(std::vector<NodeId>{1});
  EXPECT_TRUE(session.knows(2, 0));
  EXPECT_TRUE(session.knows(2, 1));
  EXPECT_TRUE(session.knows(0, 1));
  EXPECT_EQ(session.knowledge_count(2), 3u);
}

TEST(GossipSession, CollisionBlocksTransfer) {
  // 0 and 2 both adjacent to 1: simultaneous transmission jams 1.
  const Graph g = path(3);
  GossipSession session(g);
  const std::vector<NodeId> tx = {0, 2};
  const GossipRoundStats& stats = session.step(tx);
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.rumors_moved, 0u);
  EXPECT_EQ(session.knowledge_count(1), 1u);
}

TEST(GossipSession, TransmitterReceivesNothing) {
  const Graph g = path(2);
  GossipSession session(g);
  const std::vector<NodeId> tx = {0, 1};
  session.step(tx);
  EXPECT_FALSE(session.knows(0, 1));
  EXPECT_FALSE(session.knows(1, 0));
}

TEST(GossipSession, CompletionOnPathViaSweeps) {
  const Graph g = path(3);
  GossipSession session(g);
  // Alternating single transmitters complete 3-node gossip quickly.
  session.step(std::vector<NodeId>{1});  // 0,2 learn {1}
  session.step(std::vector<NodeId>{0});  // 1 learns {0}
  session.step(std::vector<NodeId>{2});  // 1 learns {2} -> 1 knows all
  session.step(std::vector<NodeId>{1});  // 0,2 learn everything
  EXPECT_TRUE(session.complete());
  EXPECT_DOUBLE_EQ(session.coverage(), 1.0);
}

TEST(GossipSession, StatsTrackTotals) {
  const Graph g = path(3);
  GossipSession session(g);
  const GossipRoundStats& stats = session.step(std::vector<NodeId>{1});
  EXPECT_EQ(stats.transmitters, 1u);
  EXPECT_EQ(stats.receivers, 2u);
  EXPECT_EQ(stats.rumors_moved, 2u);
  EXPECT_EQ(stats.knowledge_total, 5u);
  EXPECT_EQ(session.current_round(), 1u);
}

TEST(GossipSession, ViewReportsEveryNodeInformedAtRoundZero) {
  const Graph g = path(5);
  GossipSession session(g);
  const SessionView view = session.view();
  EXPECT_EQ(view.num_nodes(), 5u);
  EXPECT_EQ(view.informed_count(), 5u);
  EXPECT_EQ(&view.graph(), &g);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_TRUE(view.informed(v));
    EXPECT_EQ(view.informed_round(v), 0u);
  }
}

TEST(GossipProtocols, RoundRobinPicksSingleNode) {
  const Graph g = path(5);
  GossipSession session(g);
  RoundRobinProtocol protocol;
  protocol.reset(ProtocolContext{5, 0.5});
  Rng rng(1);
  std::vector<NodeId> out;
  for (std::uint32_t round = 1; round <= 7; ++round) {
    out.clear();
    protocol.select_transmitters(round, session.view(), rng, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (round - 1) % 5);
  }
}

TEST(GossipProtocols, RoundRobinCompletesOnPath) {
  const Graph g = path(5);
  GossipSession session(g);
  RoundRobinProtocol protocol;
  Rng rng(2);
  const GossipRun run =
      run_gossip(protocol, ProtocolContext{5, 0.4}, session, rng, 200);
  EXPECT_TRUE(run.completed);
  EXPECT_DOUBLE_EQ(run.coverage, 1.0);
}

TEST(GossipProtocols, UniformCompletesOnGnp) {
  Rng rng(3);
  const NodeId n = 256;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng,
                 static_cast<std::uint32_t>(400.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(GossipProtocols, DecayCompletesOnGnp) {
  Rng rng(4);
  const NodeId n = 256;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  GossipSession session(instance.graph);
  DecayProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng,
                 static_cast<std::uint32_t>(1000.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(GossipProtocols, KnowledgeIsMonotone) {
  Rng rng(5);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(128, 16.0), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  protocol.reset(context_for(instance));
  std::vector<NodeId> out;
  std::uint64_t previous = session.total_knowledge();
  for (std::uint32_t round = 1; round <= 50; ++round) {
    out.clear();
    protocol.select_transmitters(round, session.view(), rng, out);
    session.step(out);
    EXPECT_GE(session.total_knowledge(), previous);
    previous = session.total_knowledge();
  }
}

TEST(GossipProtocols, BudgetExhaustionReportsCoverage) {
  Rng rng(6);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(256, 30.0), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng, 5);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, 5u);
  EXPECT_GT(run.coverage, 0.0);
  EXPECT_LT(run.coverage, 1.0);
}

}  // namespace
}  // namespace radio
