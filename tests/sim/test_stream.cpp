// Streaming workload layer (sim/stream): MessageQueue ledger invariants,
// PoissonArrivals determinism, the pipeline's time division, and
// StreamSession end-to-end service — including the conservation invariant
// (no message lost or duplicated) and the flooding wedge that E16 uses as its
// negative control.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "graph/random_graph.hpp"
#include "protocols/adaptive_backoff.hpp"
#include "protocols/decay.hpp"
#include "protocols/flooding.hpp"
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
  StreamSession session(
      g, ctx, [](int) { return std::make_unique<DecayProtocol>(); }, config);
  DecayRun run;
  run.metrics = session.run();
  run.queue = session.queue();
  return run;
}

/// One select_transmitters or reset call seen by a slot's protocol.
struct SlotCall {
  int slot = 0;
  bool reset = false;
  std::uint32_t local_round = 0;  ///< select calls only
  NodeId origin = kInvalidNode;   ///< sole informed node at local round 1
};

/// Transmits the BFS frontier (nodes informed in the previous local round)
/// and logs every call. On a path the frontier never collides, so a message
/// from origin o completes in exactly ecc(o) local rounds.
class RecordingProtocol final : public Protocol {
 public:
  RecordingProtocol(int slot, std::vector<SlotCall>& log)
      : slot_(slot), log_(&log) {}

  std::string name() const override { return "recording"; }
  bool is_distributed() const override { return true; }
  void reset(const ProtocolContext&) override {
    log_->push_back(SlotCall{slot_, true});
  }
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng&, std::vector<NodeId>& out) override {
    SlotCall call{slot_, false, round};
    for (NodeId v = 0; v < session.num_nodes(); ++v) {
      if (!session.informed(v)) continue;
      if (session.informed_count() == 1) call.origin = v;
      if (session.informed_round(v) == round - 1) out.push_back(v);
    }
    log_->push_back(call);
  }

 private:
  int slot_;
  std::vector<SlotCall>* log_;
};

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

// With arrivals keeping the queue full, the wall rounds alternate between
// the two slots, and each slot replays its message under local rounds
// 1, 2, …, ecc(origin), resetting its own protocol and starting over at 1
// after every completed message.
TEST(StreamSession, SlotsAlternateAndRestartLocalRounds) {
  static_assert(kPipelineDepth == 2);
  const NodeId n = 5;
  const Graph g = path_graph(n);
  std::vector<SlotCall> log;
  StreamConfig config;
  config.rate = 8.0;
  config.horizon = 60;
  config.seed = 3;
  StreamSession session(
      g, ProtocolContext{n, 0.4},
      [&log](int slot) {
        return std::make_unique<RecordingProtocol>(slot, log);
      },
      config);
  const StreamMetrics metrics = session.run();
  EXPECT_GT(metrics.waiting_at_horizon, 0u);

  std::vector<SlotCall> selects;
  for (const SlotCall& call : log)
    if (!call.reset) selects.push_back(call);
  ASSERT_EQ(selects.size(), config.horizon);
  for (std::size_t i = 0; i < selects.size(); ++i)
    EXPECT_EQ(selects[i].slot, static_cast<int>(i % kPipelineDepth)) << i;

  const auto ecc = [n](NodeId v) { return std::max(v, n - 1 - v); };
  std::uint64_t started = 0;
  for (int slot = 0; slot < static_cast<int>(kPipelineDepth); ++slot) {
    std::uint32_t expected = 1;  // next local round of the slot's message
    std::uint32_t last = 0;      // the current message's ecc(origin)
    bool reset_pending = false;
    for (const SlotCall& call : log) {
      if (call.slot != slot) continue;
      if (call.reset) {
        EXPECT_EQ(expected, 1u) << "reset before the message completed";
        reset_pending = true;
        continue;
      }
      ASSERT_EQ(call.local_round, expected) << "slot " << slot;
      if (expected == 1) {
        EXPECT_TRUE(reset_pending) << "message started without a reset";
        ASSERT_NE(call.origin, kInvalidNode);
        last = ecc(call.origin);
        ++started;
      }
      reset_pending = false;
      expected = call.local_round == last ? 1 : call.local_round + 1;
    }
  }
  EXPECT_EQ(started, metrics.delivered + metrics.in_flight_at_horizon);
  EXPECT_GT(metrics.delivered, 2 * kPipelineDepth);
}

TEST(StreamSessionDeathTest, ObservationProtocolIsRefused) {
  const Graph g = path_graph(4);
  const auto make_session = [&g] {
    StreamSession session(
        g, ProtocolContext{4, 0.5},
        [](int) { return std::make_unique<AdaptiveBackoffProtocol>(); },
        StreamConfig{});
  };
  EXPECT_DEATH(make_session(), "precondition");
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
  StreamConfig config;
  config.rate = 0.05;
  config.horizon = 1000;
  config.seed = 23;
  StreamSession session(
      g, ctx, [](int) { return std::make_unique<FloodingProtocol>(); },
      config);
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
