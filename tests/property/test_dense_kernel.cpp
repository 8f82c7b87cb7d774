// The engine's two round paths at session level and its cost model.
//
// Per-round agreement of the sparse and dense paths (Outcome counters,
// delivered vectors, observation buffers) is checked against the
// listener-side reference in test_engine_reference.cpp (EngineEquivalence),
// which runs auto, forced-sparse and forced-dense engines on every scenario.
// What stays here is what that oracle does not see: a whole broadcast on
// both paths — informed rounds and RoundStats::dense_kernel included — and
// which path the cost model picks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/random_graph.hpp"
#include "sim/engine.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

TEST(DenseKernel, FullBroadcastIdenticalOnBothPaths) {
  // Whole-session equivalence: replay the same flooding schedule through a
  // forced-sparse and a forced-dense session; informed sets, per-round stats
  // and informed rounds must match exactly.
  Rng rng = Rng::for_stream(0xB0A, 7);
  const Graph g = generate_gnp({120, 0.4}, rng);
  BroadcastSession a(g, 0), b(g, 0);
  a.force_path(RoundPath::kSparse);
  b.force_path(RoundPath::kDense);
  for (int round = 0; round < 12 && !a.complete(); ++round) {
    const std::vector<NodeId> tx = a.informed_nodes();  // flood
    a.step(tx);
    b.step(tx);
    const RoundStats& sa = a.history().back();
    const RoundStats& sb = b.history().back();
    EXPECT_FALSE(sa.dense_kernel);
    EXPECT_TRUE(sb.dense_kernel);
    EXPECT_EQ(sa.newly_informed, sb.newly_informed);
    EXPECT_EQ(sa.collisions, sb.collisions);
    EXPECT_EQ(sa.wasted, sb.wasted);
    EXPECT_EQ(sa.informed_total, sb.informed_total);
  }
  EXPECT_EQ(a.informed_set(), b.informed_set());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(a.informed_round(v), b.informed_round(v));
}

TEST(DenseKernel, CostModelPrefersSparseOnSparseGraphs) {
  // E1–E7 regime: low degree, modest transmitter sets — auto must stay on
  // the sparse path (their results were already path-independent, but the
  // sparse sweep is the cheaper one and must remain the default).
  Rng rng = Rng::for_stream(0xC0, 1);
  const Graph g = generate_gnp({400, 0.01}, rng);
  RadioEngine engine(g);
  Bitset informed(g.num_nodes());
  informed.set(0);
  std::vector<NodeId> delivered;
  const std::vector<NodeId> tx = {0, 1, 2, 3};
  engine.step(tx, informed, delivered);
  EXPECT_EQ(engine.last_path(), RoundPath::kSparse);
}

TEST(DenseKernel, CostModelPicksDenseOnDenseRounds) {
  Rng rng = Rng::for_stream(0xC0, 2);
  const Graph g = generate_gnp({512, 0.9}, rng);
  RadioEngine engine(g);
  Bitset informed(g.num_nodes());
  informed.set(0);
  std::vector<NodeId> delivered;
  std::vector<NodeId> tx;
  for (NodeId v = 0; v < 128; ++v) tx.push_back(v);
  engine.step(tx, informed, delivered);
  EXPECT_EQ(engine.last_path(), RoundPath::kDense);
}

}  // namespace
}  // namespace radio
