// Gossip invariants, including the projection property that ties the gossip
// substrate to the broadcast simulator: restricted to a single rumor r, a
// gossip session under any transmitter sequence must produce exactly the
// informed set of a broadcast session with source r under the same
// sequence — both deliver on "unique transmitting neighbor that holds it".
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gossip/gossip_session.hpp"
#include "graph/bfs.hpp"
#include "graph/random_graph.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

using GossipScenario = std::tuple<NodeId, double, double>;  // n, p, tx_rate

class GossipGrid : public ::testing::TestWithParam<GossipScenario> {};

TEST_P(GossipGrid, SingleRumorProjectionEqualsBroadcast) {
  const auto [n, p, tx_rate] = GetParam();
  Rng rng(n * 7919 + static_cast<std::uint64_t>(p * 100));
  const Graph g = generate_gnp({n, p}, rng);
  const NodeId rumor = n / 3;

  GossipSession gossip(g);
  BroadcastSession broadcast(g, rumor);
  std::vector<NodeId> tx;
  for (int round = 0; round < 40; ++round) {
    tx.clear();
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(tx_rate)) tx.push_back(v);
    gossip.step(tx);
    broadcast.step(tx);
    for (NodeId v = 0; v < n; ++v)
      ASSERT_EQ(gossip.knows(v, rumor), broadcast.informed(v))
          << "round " << round << " node " << v;
  }
}

TEST_P(GossipGrid, KnowledgeInvariants) {
  const auto [n, p, tx_rate] = GetParam();
  Rng rng(n * 104729 + static_cast<std::uint64_t>(p * 1000));
  const Graph g = generate_gnp({n, p}, rng);
  GossipSession session(g);

  std::vector<std::size_t> previous(n, 1);
  std::vector<NodeId> tx;
  for (int round = 0; round < 30; ++round) {
    tx.clear();
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(tx_rate)) tx.push_back(v);
    session.step(tx);
    std::uint64_t total = 0;
    for (NodeId v = 0; v < n; ++v) {
      // Own rumor is never lost; knowledge only grows.
      ASSERT_TRUE(session.knows(v, v));
      ASSERT_GE(session.knowledge_count(v), previous[v]);
      previous[v] = session.knowledge_count(v);
      total += session.knowledge_count(v);
    }
    // The per-node counters and the global counter agree.
    ASSERT_EQ(total, session.total_knowledge());
    ASSERT_LE(session.total_knowledge(),
              static_cast<std::uint64_t>(n) * n);
  }
}

TEST_P(GossipGrid, RumorsRespectConnectivity) {
  const auto [n, p, tx_rate] = GetParam();
  Rng rng(n * 31 + 5);
  // Deliberately sparse enough to have several components sometimes.
  const Graph g = generate_gnp({n, p / 4}, rng);
  GossipSession session(g);
  std::vector<NodeId> tx;
  for (int round = 0; round < 30; ++round) {
    tx.clear();
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(tx_rate)) tx.push_back(v);
    session.step(tx);
  }
  // A rumor can only be known inside its originator's component.
  const std::vector<std::uint32_t> dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (dist[v] == kUnreachable) {
      EXPECT_FALSE(session.knows(v, 0)) << "node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GossipGrid,
    ::testing::Values(GossipScenario{40, 0.2, 0.2},
                      GossipScenario{100, 0.08, 0.1},
                      GossipScenario{100, 0.08, 0.5},
                      GossipScenario{200, 0.04, 0.05},
                      GossipScenario{60, 0.5, 0.3}),
    [](const ::testing::TestParamInfo<GossipScenario>& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_case";
      name += std::to_string(pinfo.index);
      return name;
    });

}  // namespace
}  // namespace radio
