// The sim/batch determinism contract, trial-loop half: trial t of a batched
// run is byte-identical to broadcast_with(factory(t), …,
// Rng::for_stream(seed, first_stream + t), …) for ANY lane count — lane
// packing changes wall time, never data. This is the dynamic pin of the
// per-trial seed derivation documented in util/rng.hpp (lane independence).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/random_graph.hpp"
#include "protocols/decay.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

bool same_run(const BroadcastRun& a, const BroadcastRun& b) {
  return a.completed == b.completed && a.rounds == b.rounds &&
         a.collisions == b.collisions && a.transmissions == b.transmissions &&
         a.informed == b.informed;
}

/// The per-instance ground truth: trial t runs solo on a fresh session with
/// its own Rng::for_stream(seed, first_stream + t) stream.
std::vector<BroadcastRun> reference_runs(const Graph& g,
                                         const ProtocolContext& ctx,
                                         NodeId source, int trials,
                                         std::uint64_t seed,
                                         std::uint64_t first_stream,
                                         const ProtocolFactory& factory,
                                         std::uint32_t max_rounds) {
  std::vector<BroadcastRun> runs;
  for (int t = 0; t < trials; ++t) {
    Rng rng = Rng::for_stream(seed, first_stream + static_cast<std::uint64_t>(t));
    const std::unique_ptr<Protocol> protocol = factory(t);
    runs.push_back(broadcast_with(*protocol, ctx, g, source, rng, max_rounds));
  }
  return runs;
}

ProtocolFactory decay_factory() {
  return [](int) { return std::make_unique<DecayProtocol>(); };
}

TEST(BatchDeterminism, SchedulerMatchesPerInstanceForAnyLaneCount) {
  Rng graph_rng(2024);
  const NodeId n = 300;
  const double p = 8.0 / static_cast<double>(n);
  const Graph g = generate_gnp({n, p}, graph_rng);
  const ProtocolContext ctx{n, p};
  const int trials = 40;
  const std::uint32_t max_rounds = 400;
  const std::uint64_t seed = 99;

  const std::vector<BroadcastRun> expected =
      reference_runs(g, ctx, 0, trials, seed, 0, decay_factory(), max_rounds);
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(trials));

  // A 1-lane request always routes per-instance; these all run batched.
  for (std::uint32_t lanes : {2u, 3u, 8u, 64u}) {
    ASSERT_EQ(plan_broadcast_batch(g, trials, decay_factory(), lanes).path,
              BatchDispatch::Path::kBatched)
        << "lanes=" << lanes;
    const std::vector<BroadcastRun> got = run_broadcast_batch(
        g, ctx, 0, trials, seed, 0, decay_factory(), max_rounds, lanes);
    ASSERT_EQ(got.size(), expected.size()) << "lanes=" << lanes;
    for (int t = 0; t < trials; ++t)
      EXPECT_TRUE(same_run(got[static_cast<std::size_t>(t)],
                           expected[static_cast<std::size_t>(t)]))
          << "lanes=" << lanes << " trial=" << t;
  }
}

TEST(BatchDeterminism, FirstStreamOffsetAlignsWithForStream) {
  Rng graph_rng(7);
  const NodeId n = 120;
  const double p = 0.08;
  const Graph g = generate_gnp({n, p}, graph_rng);
  const ProtocolContext ctx{n, p};
  const std::uint64_t seed = 5;
  const std::uint64_t first_stream = 1000;

  const std::vector<BroadcastRun> expected = reference_runs(
      g, ctx, 3, 20, seed, first_stream, decay_factory(), 300);
  const std::vector<BroadcastRun> got = run_broadcast_batch(
      g, ctx, 3, 20, seed, first_stream, decay_factory(), 300, 16);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t t = 0; t < got.size(); ++t)
    EXPECT_TRUE(same_run(got[t], expected[t])) << "trial " << t;
}

TEST(BatchDeterminism, LaneRequestAboveOneWordRunsAtTheCap) {
  Rng graph_rng(31);
  const NodeId n = 80;
  const double p = 0.1;
  const Graph g = generate_gnp({n, p}, graph_rng);
  const ProtocolContext ctx{n, p};
  const int trials = 150;
  const std::uint32_t max_rounds = 400;
  const std::uint64_t seed = 17;

  // 128 requested lanes run one full lane word, refilled until the queue of
  // 150 trials is dry.
  const BatchDispatch plan =
      plan_broadcast_batch(g, trials, decay_factory(), 128);
  EXPECT_EQ(plan.path, BatchDispatch::Path::kBatched);
  EXPECT_EQ(plan.lanes, 64u);

  const std::vector<BroadcastRun> expected =
      reference_runs(g, ctx, 0, trials, seed, 0, decay_factory(), max_rounds);
  const std::vector<BroadcastRun> got = run_broadcast_batch(
      g, ctx, 0, trials, seed, 0, decay_factory(), max_rounds, 128);
  ASSERT_EQ(got.size(), expected.size());
  for (int t = 0; t < trials; ++t)
    EXPECT_TRUE(same_run(got[static_cast<std::size_t>(t)],
                         expected[static_cast<std::size_t>(t)]))
        << "trial " << t;
}

TEST(BatchDeterminism, RunBatchedTrialsIsByteIdenticalAcrossBatchWidths) {
  Rng graph_rng(8);
  const NodeId n = 200;
  const double p = 0.05;
  const Graph g = generate_gnp({n, p}, graph_rng);
  const ProtocolContext ctx{n, p};
  const int trials = 37;  // deliberately not a multiple of any chunk size
  const std::uint32_t max_rounds = 300;
  const std::uint64_t seed = 123;

  const std::vector<BroadcastRun> expected =
      reference_runs(g, ctx, 1, trials, seed, 0, decay_factory(), max_rounds);
  for (std::uint32_t batch : {1u, 8u, 64u}) {
    const std::vector<BroadcastRun> got = run_broadcast_batch(
        g, ctx, 1, trials, seed, 0, decay_factory(), max_rounds, batch);
    ASSERT_EQ(got.size(), expected.size()) << "batch=" << batch;
    for (int t = 0; t < trials; ++t)
      EXPECT_TRUE(same_run(got[static_cast<std::size_t>(t)],
                           expected[static_cast<std::size_t>(t)]))
          << "batch=" << batch << " trial=" << t;
  }
}

/// A protocol that opts into channel observations: the dispatch layer must
/// route it to the per-instance path (the batch planes keep no per-node
/// channel state), and the results must still be the per-instance truth.
class ObservingFlood final : public Protocol {
 public:
  std::string name() const override { return "observing-flood"; }
  bool is_distributed() const override { return true; }
  bool wants_observations() const override { return true; }
  void reset(const ProtocolContext&) override {}
  void select_transmitters(std::uint32_t, const SessionView& session, Rng&,
                           std::vector<NodeId>& out) override {
    for (NodeId v = 0; v < session.graph().num_nodes(); ++v)
      if (session.informed(v)) out.push_back(v);
  }
};

TEST(BatchDeterminism, ObservationProtocolsFallBackToPerInstance) {
  // A path graph floods deterministically even with every node transmitting.
  std::vector<Edge> edges;
  const NodeId n = 16;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  const Graph g = Graph::from_edges(n, edges);
  const ProtocolContext ctx{n, 0.0};
  const ProtocolFactory factory = [](int) {
    return std::make_unique<ObservingFlood>();
  };

  const std::vector<BroadcastRun> expected =
      reference_runs(g, ctx, 0, 6, 9, 0, factory, 64);
  // lanes=64 requested, but wants_observations() forces per-instance.
  const std::vector<BroadcastRun> got =
      run_broadcast_batch(g, ctx, 0, 6, 9, 0, factory, 64, 64);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t t = 0; t < got.size(); ++t)
    EXPECT_TRUE(same_run(got[t], expected[t])) << "trial " << t;
  EXPECT_TRUE(got[0].completed);
  EXPECT_EQ(got[0].rounds, static_cast<std::uint32_t>(n - 1));
}

}  // namespace
}  // namespace radio
