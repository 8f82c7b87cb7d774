// Integration: the broadcast and gossip stacks on structured topologies —
// the protocols were designed for G(n,p), and these tests pin down how they
// behave (and that they still terminate) outside that regime.
#include <gtest/gtest.h>

#include <cmath>

#include "core/distributed.hpp"
#include "core/tree_schedule.hpp"
#include "gossip/gossip_session.hpp"
#include "graph/degree.hpp"
#include "graph/topologies.hpp"
#include "protocols/decay.hpp"
#include "protocols/uniform_gossip.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

ProtocolContext context_of(const Graph& g) {
  const double d = degree_stats(g).mean_degree;
  return ProtocolContext{g.num_nodes(), d / static_cast<double>(g.num_nodes())};
}

TEST(TopologyBroadcast, HypercubeDistributedCompletesLogarithmically) {
  const Graph g = make_hypercube(9);  // n = 512, D = 9
  DistributedOptions options;
  options.tail_includes_late_informed = true;
  ElsasserGasieniecBroadcast protocol(options);
  Rng rng(1);
  const BroadcastRun run =
      broadcast_with(protocol, context_of(g), g, 0, rng, 500);
  ASSERT_TRUE(run.completed);
  EXPECT_LE(run.rounds, 80u);  // ~ a few * (D + log n)
}

TEST(TopologyBroadcast, RingBroadcastIsDiameterBound) {
  const NodeId n = 128;
  const Graph g = make_ring(n);
  DistributedOptions options;
  options.tail_includes_late_informed = true;
  ElsasserGasieniecBroadcast protocol(options);
  Rng rng(2);
  const BroadcastRun run =
      broadcast_with(protocol, context_of(g), g, 0, rng, 4000);
  ASSERT_TRUE(run.completed);
  EXPECT_GE(run.rounds, n / 2);  // cannot beat the diameter
}

TEST(TopologyBroadcast, TreeScheduleOnCompleteTreeIsNearOptimal) {
  // On a tree the BFS-tree IS the graph; sibling transmissions never
  // interfere at their own children... but uncle/nephew interference exists
  // via nothing (trees have no cross edges) — so one group per layer.
  const Graph g = make_complete_tree(3, 6);  // n = 1093
  const TreeScheduleResult r = build_tree_schedule(g, 0);
  ASSERT_TRUE(r.report.completed);
  EXPECT_EQ(r.report.max_groups_per_layer, 1u);
  EXPECT_EQ(r.report.total_rounds, 6u);  // exactly the depth
}

TEST(TopologyBroadcast, TreeScheduleOnTorusTracksDiameter) {
  const Graph g = make_torus(16, 16);
  const TreeScheduleResult r = build_tree_schedule(g, 0);
  ASSERT_TRUE(r.report.completed);
  // D = 16; each layer needs a constant number of groups on a 4-regular
  // grid, so the total stays within a small multiple of D.
  EXPECT_GE(r.report.total_rounds, 16u);
  EXPECT_LE(r.report.total_rounds, 5u * 16u);
}

TEST(TopologyBroadcast, DecayCompletesOnRandomRegular) {
  Rng gen_rng(3);
  const Graph g = make_random_regular(512, 6, gen_rng);
  DecayProtocol protocol;
  Rng rng(4);
  const BroadcastRun run =
      broadcast_with(protocol, context_of(g), g, 0, rng, 4000);
  EXPECT_TRUE(run.completed);
}

TEST(TopologyBroadcast, GossipOnHypercubeCompletes) {
  const Graph g = make_hypercube(7);  // n = 128
  GossipSession session(g);
  UniformGossipProtocol protocol;
  Rng rng(5);
  const GossipRun run =
      run_gossip(protocol, context_of(g), session, rng, 20000);
  EXPECT_TRUE(run.completed);
}

TEST(TopologyBroadcast, HypercubeFloodingFailsLikeGnp) {
  // Degree-10 graph with massive neighborhood overlap: flooding stalls on
  // the hypercube too — collisions are a topology-wide phenomenon.
  const Graph g = make_hypercube(10);
  class Flood final : public Protocol {
   public:
    std::string name() const override { return "flood"; }
    bool is_distributed() const override { return true; }
    void reset(const ProtocolContext&) override {}
    void select_transmitters(std::uint32_t, const SessionView& session,
                             Rng&, std::vector<NodeId>& out) override {
      for (NodeId v = 0; v < session.graph().num_nodes(); ++v)
        if (session.informed(v)) out.push_back(v);
    }
  } protocol;
  Rng rng(6);
  const BroadcastRun run =
      broadcast_with(protocol, context_of(g), g, 0, rng, 200);
  EXPECT_FALSE(run.completed);
}

}  // namespace
}  // namespace radio
