// Broadcast sessions: informed bookkeeping, round history, completion, and
// the history-free LightSession's input checks.
#include <gtest/gtest.h>

#include "sim/light_session.hpp"
#include "sim/session.hpp"
#include "sim/trace.hpp"

namespace radio {
namespace {

Graph path4() { return Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}); }

TEST(Session, InitialState) {
  const Graph g = path4();
  BroadcastSession session(g, 0);
  EXPECT_EQ(session.source(), 0u);
  EXPECT_TRUE(session.informed(0));
  EXPECT_FALSE(session.informed(1));
  EXPECT_EQ(session.informed_count(), 1u);
  EXPECT_EQ(session.informed_round(0), 0u);
  EXPECT_EQ(session.informed_round(1), kUnreachable);
  EXPECT_FALSE(session.complete());
  EXPECT_EQ(session.current_round(), 0u);
}

TEST(Session, StepByStepAlongPath) {
  const Graph g = path4();
  BroadcastSession session(g, 0);
  for (NodeId t : {0, 1, 2}) {
    const std::vector<NodeId> tx = {t};
    const RoundStats& stats = session.step(tx);
    EXPECT_EQ(stats.newly_informed, 1u);
    EXPECT_EQ(stats.transmitters, 1u);
  }
  EXPECT_TRUE(session.complete());
  EXPECT_EQ(session.current_round(), 3u);
  EXPECT_EQ(session.informed_round(1), 1u);
  EXPECT_EQ(session.informed_round(2), 2u);
  EXPECT_EQ(session.informed_round(3), 3u);
}

TEST(Session, HistoryAccumulates) {
  const Graph g = path4();
  BroadcastSession session(g, 0);
  session.step(std::vector<NodeId>{0});
  session.step(std::vector<NodeId>{});
  ASSERT_EQ(session.history().size(), 2u);
  EXPECT_EQ(session.history()[0].round, 1u);
  EXPECT_EQ(session.history()[0].newly_informed, 1u);
  EXPECT_EQ(session.history()[1].round, 2u);
  EXPECT_EQ(session.history()[1].newly_informed, 0u);
  EXPECT_EQ(session.history()[1].informed_total, 2u);
}

TEST(Session, InformedAndUninformedNodeLists) {
  const Graph g = path4();
  BroadcastSession session(g, 1);
  EXPECT_EQ(session.informed_nodes(), (std::vector<NodeId>{1}));
  EXPECT_EQ(session.uninformed_nodes(), (std::vector<NodeId>{0, 2, 3}));
  session.step(std::vector<NodeId>{1});
  EXPECT_EQ(session.informed_nodes(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(session.uninformed_nodes(), (std::vector<NodeId>{3}));
}

TEST(Session, CollisionsAccumulateInTotal) {
  // 0 and 2 both adjacent to 1: transmitting {0, 2} jams 1 every round.
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  BroadcastSession session(g, 0);
  // Make 2 informed first via 1: but 1 uninformed... use direct jamming:
  const std::vector<NodeId> tx = {0, 2};
  session.step(tx);
  session.step(tx);
  EXPECT_EQ(session.total_collisions(), 2u);
  EXPECT_FALSE(session.informed(1));
}

TEST(Session, SingleNodeGraphIsCompleteImmediately) {
  const Graph g = Graph::from_edges(1, {});
  BroadcastSession session(g, 0);
  EXPECT_TRUE(session.complete());
}

TEST(Session, WastedCountsRedundantReceptions) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  BroadcastSession session(g, 0);
  session.step(std::vector<NodeId>{0});  // informs 1
  const RoundStats& stats = session.step(std::vector<NodeId>{0});  // again
  EXPECT_EQ(stats.wasted, 1u);
  EXPECT_EQ(stats.newly_informed, 0u);
}

TEST(SessionDeathTest, InvalidSourceRejected) {
  const Graph g = path4();
  EXPECT_DEATH(BroadcastSession(g, 9), "precondition");
}

TEST(LightSessionDeathTest, DuplicateTransmitterRejected) {
  // A repeated id would be folded twice and turn its neighbours' receptions
  // into collisions; the session must refuse it like RadioEngine does.
  const Graph g = path4();
  LightSession<Graph> session(g, 0);
  const std::vector<NodeId> tx = {0, 0};
  EXPECT_DEATH(session.step(tx), "precondition");
}

TEST(LightSessionDeathTest, UninformedTransmitterRejected) {
  const Graph g = path4();
  LightSession<Graph> session(g, 0);
  const std::vector<NodeId> tx = {2};
  EXPECT_DEATH(session.step(tx), "precondition");
}

TEST(Trace, SummaryStates) {
  const Graph g = path4();
  BroadcastSession session(g, 0);
  EXPECT_NE(trace_summary(session).find("incomplete"), std::string::npos);
  session.step(std::vector<NodeId>{0});
  session.step(std::vector<NodeId>{1});
  session.step(std::vector<NodeId>{2});
  const std::string summary = trace_summary(session);
  EXPECT_NE(summary.find("completed in 3 rounds"), std::string::npos);
  EXPECT_NE(summary.find("4/4"), std::string::npos);
}

}  // namespace
}  // namespace radio
