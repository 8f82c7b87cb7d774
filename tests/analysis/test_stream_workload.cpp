// Streaming workloads: StreamSession is one template over GraphBackend, so
// the light path (the on-demand ImplicitGnp, E18) and the full path (its
// materialized CSR twin, E16/E17's kind of graph) must give identical
// metrics, and run_stream_trial must honor the backend choice and stream
// index it is handed.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/stream_workload.hpp"
#include "graph/implicit_gnp.hpp"
#include "protocols/decay.hpp"

namespace radio {
namespace {

template <GraphBackend G>
StreamMetrics run_pipelined_decay(const G& g, double p,
                                  const StreamConfig& config) {
  StreamSession session(
      g, ProtocolContext{g.num_nodes(), p},
      [](int) { return std::make_unique<DecayProtocol>(); }, config);
  return session.run();
}

// The same edges on either backend give the same arrivals, coin flips and
// deliveries: every StreamMetrics field must match between an ImplicitGnp
// and its materialize() twin.
TEST(StreamWorkload, LightMatchesFullPath) {
  const NodeId n = 512;
  const double p = 20.0 / n;
  const ImplicitGnp implicit(n, p, 404);
  const Graph materialized = implicit.materialize();

  StreamConfig config;
  config.rate = 0.02;
  config.horizon = 1200;
  config.seed = 404;
  config.stream = 5;
  config.trajectory_samples = 6;

  const StreamMetrics a = run_pipelined_decay(implicit, p, config);
  const StreamMetrics b = run_pipelined_decay(materialized, p, config);

  EXPECT_GT(a.delivered, 0u);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.waiting_at_horizon, b.waiting_at_horizon);
  EXPECT_EQ(a.waiting_mid, b.waiting_mid);
  EXPECT_EQ(a.max_waiting, b.max_waiting);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.latencies, b.latencies);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].round, b.trajectory[i].round);
    EXPECT_EQ(a.trajectory[i].waiting, b.trajectory[i].waiting);
    EXPECT_EQ(a.trajectory[i].in_flight, b.trajectory[i].in_flight);
  }
  EXPECT_EQ(a.enqueued,
            a.delivered + a.in_flight_at_horizon + a.waiting_at_horizon);
}

// E18's shape: pipelined decay streams on the on-demand backend, which
// never builds an adjacency list, and every enqueued message is accounted
// for at the horizon.
TEST(StreamWorkload, LightPathRunsOnImplicitBackend) {
  const NodeId n = 4096;
  const double p = 12.0 / n;
  const ImplicitGnp g(n, p, 77);
  StreamConfig config;
  config.rate = 0.005;
  config.horizon = 600;
  config.seed = 77;
  const StreamMetrics metrics = run_pipelined_decay(g, p, config);
  EXPECT_EQ(metrics.rounds, 600u);
  EXPECT_GT(metrics.delivered, 0u);
  EXPECT_EQ(metrics.enqueued, metrics.delivered + metrics.in_flight_at_horizon +
                                  metrics.waiting_at_horizon);
}

TEST(StreamWorkload, TrialIsDeterministicInSeedAndStream) {
  const GnpParams params = GnpParams::with_degree(64, 16.0);
  const auto run_once = [&](std::uint64_t stream) {
    Rng rng = Rng::for_stream(7, stream);
    return run_stream_trial(
        params, GraphBackendChoice::kAuto,
        [](int) { return std::make_unique<DecayProtocol>(); }, 0.02, 800, 7,
        stream, rng);
  };
  const StreamMetrics a = run_once(0);
  const StreamMetrics b = run_once(0);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.latencies, b.latencies);

  const StreamMetrics c = run_once(1);
  EXPECT_TRUE(a.enqueued != c.enqueued || a.latencies != c.latencies);
}

}  // namespace
}  // namespace radio
