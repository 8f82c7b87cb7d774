// BatchEngine unit tests: lane lifecycle (open/reuse), stepping a subset of
// lanes, SessionView surface, and the one-word lane cap. The cross-checked
// semantics (batch ≡ RadioEngine per lane) live in
// tests/property/test_batch_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/random_graph.hpp"
#include "sim/batch/batch_engine.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(BatchEngine, OpenLaneStartsAtSourceOnly) {
  const Graph g = path_graph(6);
  BatchEngine engine(g, 3);
  engine.open_lane(0, 0);
  engine.open_lane(1, 3);
  engine.open_lane(2, 5);
  EXPECT_EQ(engine.lane_count(), 3u);
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(engine.informed_count(lane), 1u);
    EXPECT_EQ(engine.round(lane), 0u);
    EXPECT_FALSE(engine.complete(lane));
  }
  EXPECT_TRUE(engine.informed(0, 0));
  EXPECT_FALSE(engine.informed(0, 3));
  EXPECT_TRUE(engine.informed(1, 3));
  const SessionView view = engine.view(1);
  EXPECT_EQ(view.informed_round(3), 0u);
  EXPECT_EQ(view.informed_round(0), kUnreachable);
  EXPECT_EQ(view.informed_count(), 1u);
}

TEST(BatchEngine, SteppingSubsetLeavesOtherLanesUntouched) {
  const Graph g = path_graph(5);
  BatchEngine engine(g, 4);
  for (std::uint32_t lane = 0; lane < 4; ++lane) engine.open_lane(lane, 0);

  // Step only lanes 1 and 3: their sources transmit and inform node 1.
  const std::vector<NodeId> source = {0};
  engine.add_transmitters(1, source);
  engine.add_transmitters(3, source);
  const std::vector<std::uint32_t> active = {1, 3};
  engine.step(active);

  for (std::uint32_t lane : {1u, 3u}) {
    EXPECT_EQ(engine.round(lane), 1u);
    EXPECT_EQ(engine.outcome(lane).newly_informed, 1u);
    EXPECT_TRUE(engine.informed(lane, 1));
    EXPECT_EQ(engine.informed_count(lane), 2u);
  }
  for (std::uint32_t lane : {0u, 2u}) {
    EXPECT_EQ(engine.round(lane), 0u);
    EXPECT_FALSE(engine.informed(lane, 1));
    EXPECT_EQ(engine.informed_count(lane), 1u);
  }
}

TEST(BatchEngine, ReopenedLaneForgetsPreviousInstance) {
  const Graph g = path_graph(4);
  BatchEngine engine(g, 2);
  engine.open_lane(0, 0);
  engine.open_lane(1, 0);

  // Run lane 0 to completion (flood a 4-path from node 0: 0→1, 1→2, 2→3).
  const std::vector<std::uint32_t> only0 = {0};
  for (NodeId hop = 0; hop + 1 < 4; ++hop) {
    engine.add_transmitters(0, std::vector<NodeId>{hop});
    engine.step(only0);
  }
  ASSERT_TRUE(engine.complete(0));
  ASSERT_EQ(engine.round(0), 3u);

  // Reuse the lane for a fresh instance from the other end.
  engine.open_lane(0, 3);
  EXPECT_EQ(engine.informed_count(0), 1u);
  EXPECT_EQ(engine.round(0), 0u);
  EXPECT_FALSE(engine.informed(0, 0));
  EXPECT_TRUE(engine.informed(0, 3));
  const SessionView view = engine.view(0);
  EXPECT_EQ(view.informed_round(3), 0u);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_EQ(view.informed_round(v), kUnreachable) << "node " << v;

  // The fresh instance must behave exactly like a fresh solo session.
  BroadcastSession session(g, 3);
  for (NodeId hop = 3; hop > 0; --hop) {
    const std::vector<NodeId> tx = {hop};
    engine.add_transmitters(0, tx);
    engine.step(only0);
    const RoundStats& stats = session.step(tx);
    ASSERT_EQ(engine.outcome(0).newly_informed, stats.newly_informed);
  }
  EXPECT_TRUE(engine.complete(0));
  // Lane 1 never stepped: still at its source.
  EXPECT_EQ(engine.informed_count(1), 1u);
}

TEST(BatchEngineDeathTest, RejectsMoreLanesThanOneWord) {
  const Graph g = path_graph(4);
  const BatchEngine full(g, kMaxBatchLanes);
  EXPECT_EQ(full.lane_count(), 64u);
  EXPECT_DEATH(BatchEngine(g, kMaxBatchLanes + 1), "precondition");
}

TEST(BatchRunnerCostModel, LaneClampRespectsStateLimit) {
  Rng rng(11);
  const Graph small = generate_gnp({64, 0.1}, rng);
  // A small graph fits a full lane word; wider requests clamp to it.
  EXPECT_EQ(batch_lanes_for(small, 64), 64u);
  EXPECT_EQ(batch_lanes_for(small, 4096), kMaxBatchLanes);
  // Degenerate requests never batch.
  EXPECT_EQ(batch_lanes_for(small, 1), 1u);
  EXPECT_EQ(batch_lanes_for(small, 0), 1u);
  // State accounting is monotone in lanes and positive.
  EXPECT_GT(batch_state_bytes(small, 64), batch_state_bytes(small, 1));
}

}  // namespace
}  // namespace radio
