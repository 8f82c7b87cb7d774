// Streaming workload layer (sim/stream): MessageQueue ledger invariants,
// PoissonArrivals determinism, and StreamSession end-to-end service —
// including the conservation invariant (no message lost or duplicated) and
// the flooding wedge that E16 uses as its negative control.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/random_graph.hpp"
#include "protocols/streaming_adapters.hpp"
#include "sim/stream/message_queue.hpp"
#include "sim/stream/stream_session.hpp"

namespace radio {
namespace {

TEST(MessageQueue, StartsInFifoOrder) {
  MessageQueue q;
  EXPECT_EQ(q.enqueue(3, 1), 0u);
  EXPECT_EQ(q.enqueue(7, 1), 1u);
  EXPECT_EQ(q.enqueue(5, 2), 2u);
  EXPECT_EQ(q.waiting(), 3u);

  EXPECT_EQ(q.start_next(4), 0u);
  EXPECT_EQ(q.start_next(5), 1u);
  EXPECT_EQ(q.waiting(), 1u);
  EXPECT_EQ(q.in_flight(), 2u);

  const StreamMessage& first = q.message(0);
  EXPECT_EQ(first.origin, 3u);
  EXPECT_EQ(first.arrival_round, 1u);
  EXPECT_EQ(first.start_round, 4u);
  EXPECT_TRUE(first.started());
  EXPECT_FALSE(first.delivered());
}

TEST(MessageQueue, ConservesThroughFullLifecycle) {
  MessageQueue q;
  for (int i = 0; i < 5; ++i) {
    q.enqueue(static_cast<NodeId>(i), static_cast<std::uint32_t>(i));
    EXPECT_TRUE(q.conserves());
  }
  for (int i = 0; i < 3; ++i) {
    q.start_next(10);
    EXPECT_TRUE(q.conserves());
  }
  q.mark_delivered(0, 20);
  q.mark_delivered(2, 25);
  EXPECT_TRUE(q.conserves());
  EXPECT_EQ(q.total_enqueued(), 5u);
  EXPECT_EQ(q.delivered(), 2u);
  EXPECT_EQ(q.in_flight(), 1u);
  EXPECT_EQ(q.waiting(), 2u);
  EXPECT_EQ(q.message(2).completion_round, 25u);
}

TEST(PoissonArrivals, IsAFixedFunctionOfSeedAndStream) {
  const auto draw_all = [] {
    PoissonArrivals arrivals(0.7, 100,
                             Rng::for_stream(99, kArrivalStreamTag | 3));
    std::vector<NodeId> origins;
    std::vector<std::uint32_t> counts;
    for (int r = 0; r < 200; ++r) counts.push_back(arrivals.draw(origins));
    return std::pair{counts, origins};
  };
  const auto a = draw_all();
  const auto b = draw_all();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  for (const NodeId origin : a.second) EXPECT_LT(origin, 100u);
}

TEST(PoissonArrivals, MeanTracksRate) {
  const double rate = 0.3;
  PoissonArrivals arrivals(rate, 8, Rng::for_stream(1, kArrivalStreamTag));
  std::vector<NodeId> origins;
  const int rounds = 20000;
  std::uint64_t total = 0;
  for (int r = 0; r < rounds; ++r) total += arrivals.draw(origins);
  const double mean = static_cast<double>(total) / rounds;
  // Poisson(0.3) over 20k rounds: stderr ≈ sqrt(0.3/20000) ≈ 0.0039.
  EXPECT_NEAR(mean, rate, 0.02);
  EXPECT_EQ(origins.size(), total);
}

Graph connected_gnp(NodeId n, double degree, std::uint64_t seed) {
  Rng rng = Rng::for_stream(seed, 0);
  return generate_gnp(GnpParams::with_degree(n, degree), rng);
}

struct DecayRun {
  StreamMetrics metrics;
  MessageQueue queue;
};

DecayRun run_decay_session(const Graph& g, const StreamConfig& config) {
  const ProtocolContext ctx{g.num_nodes(), 0.0};
  const auto protocol = make_pipelined_decay(2);
  StreamSession session(g, ctx, *protocol, config);
  DecayRun run;
  run.metrics = session.run();
  run.queue = session.queue();
  return run;
}

TEST(StreamSession, DecayDeliversAndConserves) {
  const Graph g = connected_gnp(64, 20.0, 11);
  StreamConfig config;
  config.rate = 0.01;
  config.horizon = 1500;
  config.seed = 11;
  const DecayRun run = run_decay_session(g, config);
  const StreamMetrics& metrics = run.metrics;

  EXPECT_GT(metrics.enqueued, 0u);
  EXPECT_GT(metrics.delivered, 0u);
  EXPECT_EQ(metrics.rounds, config.horizon);
  EXPECT_EQ(metrics.latencies.size(), metrics.delivered);

  // Conservation: every enqueued message is delivered, in flight, or
  // waiting at the horizon — nothing lost, nothing duplicated.
  EXPECT_TRUE(run.queue.conserves());
  EXPECT_EQ(metrics.enqueued,
            metrics.delivered + metrics.in_flight_at_horizon +
                metrics.waiting_at_horizon);

  // Per-message stamps are ordered: arrival <= start < completion, and
  // latency is completion - arrival.
  std::size_t checked = 0;
  for (const StreamMessage& m : run.queue.messages()) {
    if (!m.delivered()) continue;
    EXPECT_LE(m.arrival_round, m.start_round);
    EXPECT_LT(m.start_round, m.completion_round);
    ++checked;
  }
  EXPECT_EQ(checked, metrics.delivered);
}

TEST(StreamSession, ZeroRateProducesNoTraffic) {
  const Graph g = connected_gnp(32, 10.0, 5);
  StreamConfig config;
  config.rate = 0.0;
  config.horizon = 50;
  const StreamMetrics metrics = run_decay_session(g, config).metrics;
  EXPECT_EQ(metrics.enqueued, 0u);
  EXPECT_EQ(metrics.delivered, 0u);
  EXPECT_EQ(metrics.transmissions, 0u);
  EXPECT_EQ(metrics.max_waiting, 0u);
}

TEST(StreamSession, FloodingWedgesAndQueueGrows) {
  // Dense graph: once >= 2 nodes are informed, flooding's all-transmit rule
  // collides forever and the slot never retires its message. The queue must
  // grow at the offered load — the honest accounting E16 relies on.
  const Graph g = connected_gnp(64, 20.0, 23);
  const ProtocolContext ctx{g.num_nodes(), 0.0};
  const auto protocol = make_pipelined_flooding(2);
  StreamConfig config;
  config.rate = 0.05;
  config.horizon = 1000;
  config.seed = 23;
  StreamSession session(g, ctx, *protocol, config);
  const StreamMetrics metrics = session.run();
  EXPECT_EQ(metrics.delivered, 0u);
  EXPECT_GT(metrics.enqueued, 20u);
  EXPECT_GT(metrics.waiting_at_horizon, metrics.waiting_mid);
  EXPECT_TRUE(session.queue().conserves());
}

TEST(StreamSession, TrajectorySamplesCoverTheHorizon) {
  const Graph g = connected_gnp(32, 10.0, 7);
  StreamConfig config;
  config.rate = 0.02;
  config.horizon = 400;
  config.trajectory_samples = 4;
  const StreamMetrics metrics = run_decay_session(g, config).metrics;
  ASSERT_FALSE(metrics.trajectory.empty());
  EXPECT_EQ(metrics.trajectory.back().round, config.horizon);
  std::uint32_t previous = 0;
  for (const QueueSample& sample : metrics.trajectory) {
    EXPECT_GT(sample.round, previous);
    previous = sample.round;
  }
}

TEST(StreamSession, IdenticalConfigsProduceIdenticalMetrics) {
  const Graph g = connected_gnp(48, 14.0, 31);
  StreamConfig config;
  config.rate = 0.03;
  config.horizon = 800;
  config.seed = 31;
  config.stream = 2;
  const StreamMetrics a = run_decay_session(g, config).metrics;
  const StreamMetrics b = run_decay_session(g, config).metrics;
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.latencies, b.latencies);
}

TEST(StreamSession, DistinctStreamsProduceDistinctTraffic) {
  const Graph g = connected_gnp(48, 14.0, 31);
  StreamConfig config;
  config.rate = 0.05;
  config.horizon = 800;
  config.seed = 31;
  config.stream = 0;
  const StreamMetrics a = run_decay_session(g, config).metrics;
  config.stream = 1;
  const StreamMetrics b = run_decay_session(g, config).metrics;
  // Different trial streams must decouple: identical arrival sequences
  // would mean the stream index is ignored.
  EXPECT_TRUE(a.enqueued != b.enqueued || a.latencies != b.latencies);
}

}  // namespace
}  // namespace radio
