// Fault injection: crash semantics (radio off), loss semantics, completion
// accounting, fault-plan construction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(FaultPlan, CrashFractionRoughlyRespected) {
  Rng rng(1);
  const SessionFaults faults = make_crash_faults(10000, 0.3, 0, rng);
  const double fraction =
      static_cast<double>(faults.crashed.count()) / 10000.0;
  EXPECT_NEAR(fraction, 0.3, 0.03);
  EXPECT_FALSE(faults.crashed.test(0));  // protected
  EXPECT_TRUE(faults.any());
}

TEST(FaultPlan, ZeroFractionCrashesNobody) {
  Rng rng(2);
  const SessionFaults faults = make_crash_faults(100, 0.0, 5, rng);
  EXPECT_EQ(faults.crashed.count(), 0u);
}

TEST(FaultPlan, LossOnlyPlan) {
  const SessionFaults faults{.crashed = {}, .loss = 0.25, .seed = 77};
  EXPECT_EQ(faults.crashed.size(), 0u);
  EXPECT_DOUBLE_EQ(faults.loss, 0.25);
  EXPECT_TRUE(faults.any());
}

TEST(FaultPlan, EmptyPlanIsInert) {
  const SessionFaults faults;
  EXPECT_FALSE(faults.any());
}

TEST(FaultySession, CrashedNodeNeverTransmitsNorJams) {
  // Path 0-1-2; crash node 1. A transmission scheduled for 1 is dropped, so
  // node 2 stays uninformed, and 1's radio being off means no jamming at 0/2.
  const Graph g = path(3);
  SessionFaults faults;
  faults.crashed = Bitset(3);
  faults.crashed.set(1);
  BroadcastSession session(g, 0, faults);
  EXPECT_EQ(session.alive_count(), 2u);
  const std::vector<NodeId> tx = {0, 1};  // 1 filtered out
  const RoundStats& stats = session.step(tx);
  EXPECT_EQ(stats.transmitters, 1u);  // only node 0 actually transmitted
  EXPECT_FALSE(session.informed(1));  // dead receiver
  // With 1 dead, the component of alive informed nodes is just {0}: session
  // is NOT complete (2 alive, 1 informed).
  EXPECT_FALSE(session.complete());
}

TEST(FaultySession, CrashedNodesExcludedFromCompletion) {
  // Path 0-1-2-3; crash node 3. Completion == {0,1,2} informed.
  const Graph g = path(4);
  SessionFaults faults;
  faults.crashed = Bitset(4);
  faults.crashed.set(3);
  BroadcastSession session(g, 0, faults);
  session.step(std::vector<NodeId>{0});
  session.step(std::vector<NodeId>{1});
  EXPECT_TRUE(session.complete());
  EXPECT_FALSE(session.informed(3));
  EXPECT_EQ(session.uninformed_nodes(), std::vector<NodeId>{});
}

TEST(FaultySession, CrashedNodeNeverReceives) {
  const Graph g = path(2);
  SessionFaults faults;
  faults.crashed = Bitset(2);
  faults.crashed.set(1);
  BroadcastSession session(g, 0, faults);
  for (int i = 0; i < 5; ++i) session.step(std::vector<NodeId>{0});
  EXPECT_FALSE(session.informed(1));
  EXPECT_TRUE(session.complete());  // alive = {0}, informed = {0}
}

TEST(FaultySession, LossDropsDeliveriesAtConfiguredRate) {
  // Star: center 0 informs 500 leaves in one round; with loss 0.4 about 60%
  // arrive.
  const NodeId n = 501;
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf});
  const Graph g = Graph::from_edges(n, edges);
  const SessionFaults faults{.crashed = {}, .loss = 0.4, .seed = 9};
  BroadcastSession session(g, 0, faults);
  const RoundStats& stats = session.step(std::vector<NodeId>{0});
  EXPECT_NEAR(static_cast<double>(stats.newly_informed), 300.0, 60.0);
  EXPECT_EQ(session.lost_deliveries(),
            500u - stats.newly_informed);
}

TEST(FaultySession, LossZeroLosesNothing) {
  const Graph g = path(3);
  const SessionFaults faults{.crashed = {}, .loss = 0.0, .seed = 3};
  BroadcastSession session(g, 0, faults);
  session.step(std::vector<NodeId>{0});
  EXPECT_EQ(session.lost_deliveries(), 0u);
  EXPECT_TRUE(session.informed(1));
}

TEST(FaultySession, LossAccountingBalancesEveryRound) {
  // Conservation law of the loss fault model: over any session, every
  // unique delivery either informed a node (newly_informed) or was dropped
  // (lost_deliveries counts drops, including repeated drops to the same
  // node across rounds) — and the per-round ledger must balance:
  // newly informed this round <= deliveries attempted, and the running
  // lost counter is non-decreasing.
  const NodeId n = 101;
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf});
  const Graph g = Graph::from_edges(n, edges);
  const SessionFaults faults{.crashed = {}, .loss = 0.5, .seed = 21};
  BroadcastSession session(g, 0, faults);

  std::uint64_t lost_before = 0;
  std::uint64_t total_newly_informed = 1;  // the source, informed at round 0
  for (int round = 0; round < 64 && !session.complete(); ++round) {
    const std::size_t uninformed_before =
        session.alive_count() - session.informed_count();
    const RoundStats& stats = session.step(std::vector<NodeId>{0});
    const std::uint64_t lost_now = session.lost_deliveries() - lost_before;
    lost_before = session.lost_deliveries();
    total_newly_informed += stats.newly_informed;
    // Star from the center: every uninformed leaf heard the message, so
    // deliveries split exactly into informed + lost.
    EXPECT_EQ(stats.newly_informed + lost_now, uninformed_before);
    EXPECT_EQ(session.informed_count(), total_newly_informed);
  }
  EXPECT_TRUE(session.complete());
  EXPECT_GT(session.lost_deliveries(), 0u);  // loss=0.5 drops some delivery
}

TEST(FaultySession, LostDeliveryCanSucceedLater) {
  const Graph g = path(2);
  const SessionFaults faults{.crashed = {}, .loss = 0.5, .seed = 4};
  BroadcastSession session(g, 0, faults);
  for (int i = 0; i < 64 && !session.complete(); ++i)
    session.step(std::vector<NodeId>{0});
  EXPECT_TRUE(session.complete());  // geometric retry wins eventually
}

TEST(FaultySession, DistributedProtocolCompletesUnderCrashes) {
  Rng rng(10);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  const SessionFaults faults =
      make_crash_faults(instance.graph.num_nodes(), 0.2, 0, rng);
  BroadcastSession session(instance.graph, 0, faults);
  ElsasserGasieniecBroadcast protocol;
  const BroadcastRun run =
      run_protocol(protocol, context_for(instance), session, rng,
                   static_cast<std::uint32_t>(120.0 * ln_n));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(session.informed_count(), session.alive_count());
}

TEST(FaultySessionDeathTest, CrashedSourceRejected) {
  const Graph g = path(3);
  SessionFaults faults;
  faults.crashed = Bitset(3);
  faults.crashed.set(0);
  EXPECT_DEATH(BroadcastSession(g, 0, faults), "precondition");
}

TEST(FaultySessionDeathTest, WrongCrashSizeRejected) {
  const Graph g = path(3);
  SessionFaults faults;
  faults.crashed = Bitset(7);
  EXPECT_DEATH(BroadcastSession(g, 0, faults), "precondition");
}

TEST(FaultPlanDeathTest, InvalidParametersRejected) {
  Rng rng(11);
  EXPECT_DEATH(make_crash_faults(10, 1.0, 0, rng), "precondition");
  EXPECT_DEATH(make_crash_faults(10, 0.5, 10, rng), "precondition");
  const Graph g = path(3);
  const SessionFaults certain_loss{.crashed = {}, .loss = 1.0, .seed = 0};
  EXPECT_DEATH(BroadcastSession(g, 0, certain_loss), "precondition");
}

}  // namespace
}  // namespace radio
