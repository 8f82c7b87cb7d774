// BatchDispatch regression (sim/batch/batch_runner.hpp): the cost model's
// routing decision is reported, not silent. The load-bearing case is the
// observation-feedback fallback — the batch runner used to chunk trials
// for the batch core and then fall back serially INSIDE each chunk when the
// protocol wants per-node observations, reporting nothing; now the plan
// short-circuits to the per-instance path and says why. These
// tests pin the reported path/reason for each branch and that dispatch
// routing never changes results.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/trial_runner.hpp"
#include "graph/random_graph.hpp"
#include "protocols/adaptive_backoff.hpp"
#include "protocols/decay.hpp"
#include "sim/batch/batch_runner.hpp"

namespace radio {
namespace {

Graph dense_graph(NodeId n, std::uint64_t seed) {
  Rng rng = Rng::for_stream(seed, 0);
  return generate_gnp(GnpParams::with_degree(n, 16.0), rng);
}

TEST(BatchDispatch, ObservationFeedbackReportsPerInstance) {
  const Graph g = dense_graph(128, 3);
  const ProtocolFactory factory = [](int) {
    return std::make_unique<AdaptiveBackoffProtocol>();
  };
  const BatchDispatch plan = plan_broadcast_batch(g, 8, factory, 16);
  EXPECT_EQ(plan.path, BatchDispatch::Path::kPerInstance);
  EXPECT_EQ(plan.lanes, 1u);
  EXPECT_EQ(std::string(plan.reason), "observation-feedback protocol");
}

TEST(BatchDispatch, UnbatchedRequestReportsPerInstance) {
  const Graph g = dense_graph(128, 3);
  const ProtocolFactory factory = [](int) {
    return std::make_unique<DecayProtocol>();
  };
  const BatchDispatch plan = plan_broadcast_batch(g, 8, factory, 1);
  EXPECT_EQ(plan.path, BatchDispatch::Path::kPerInstance);
  EXPECT_EQ(std::string(plan.reason), "batching not requested");
}

TEST(BatchDispatch, DegenerateTrialCountReportsPerInstance) {
  const Graph g = dense_graph(128, 3);
  const ProtocolFactory factory = [](int) {
    return std::make_unique<DecayProtocol>();
  };
  const BatchDispatch plan = plan_broadcast_batch(g, 1, factory, 16);
  EXPECT_EQ(plan.path, BatchDispatch::Path::kPerInstance);
  EXPECT_EQ(std::string(plan.reason), "fewer than 2 trials");
}

TEST(BatchDispatch, BatchableWorkloadReportsBatchedWithLanes) {
  const Graph g = dense_graph(128, 3);
  const ProtocolFactory factory = [](int) {
    return std::make_unique<DecayProtocol>();
  };
  const BatchDispatch plan = plan_broadcast_batch(g, 16, factory, 8);
  EXPECT_EQ(plan.path, BatchDispatch::Path::kBatched);
  EXPECT_GE(plan.lanes, 2u);
  EXPECT_LE(plan.lanes, 8u);
  EXPECT_EQ(std::string(plan.reason), "");
}

// The fallback is a routing decision, not a semantic one: an
// observation-feedback workload routed per-instance must produce exactly
// what the per-instance reference path produces (trial t always draws from
// Rng::for_stream(seed, t)).
TEST(BatchDispatch, ObservationFallbackMatchesPerInstanceReference) {
  const Graph g = dense_graph(96, 9);
  const ProtocolContext ctx{g.num_nodes(), 0.0};
  const ProtocolFactory factory = [](int) {
    return std::make_unique<AdaptiveBackoffProtocol>();
  };
  const std::uint64_t seed = 2718;
  const int trials = 6;
  const std::uint32_t max_rounds = 4000;

  const BatchDispatch dispatch = plan_broadcast_batch(g, trials, factory, 16);
  EXPECT_EQ(dispatch.path, BatchDispatch::Path::kPerInstance);
  EXPECT_EQ(std::string(dispatch.reason), "observation-feedback protocol");
  const auto routed = run_broadcast_batch(g, ctx, 0, trials, seed, 0, factory,
                                          max_rounds, 16);

  const auto reference =
      run_trials<BroadcastRun>(trials, seed, [&](int i, Rng& rng) {
        const std::unique_ptr<Protocol> protocol = factory(i);
        return broadcast_with(*protocol, ctx, g, 0, rng, max_rounds);
      });
  ASSERT_EQ(routed.size(), reference.size());
  for (std::size_t i = 0; i < routed.size(); ++i) {
    EXPECT_EQ(routed[i].completed, reference[i].completed) << i;
    EXPECT_EQ(routed[i].rounds, reference[i].rounds) << i;
    EXPECT_EQ(routed[i].collisions, reference[i].collisions) << i;
    EXPECT_EQ(routed[i].transmissions, reference[i].transmissions) << i;
  }
}

}  // namespace
}  // namespace radio
