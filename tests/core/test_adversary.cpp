// Guided adversarial search engine: fixed small-set schedules, certificate
// semantics and probe accounting, and the guided-beats-blind contract at
// equal probe budgets.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/workload.hpp"
#include "core/adversary.hpp"
#include "core/lower_bound.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges);
}

TEST(FixedSmallSetSchedule, OnlyInformedMembersTransmit) {
  Rng rng(1);
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  FixedSmallSetScheduleProtocol protocol(SmallSetSchedule{{{0, 3}, 2}});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  // Node 3 is scheduled but uninformed: only node 0 may transmit.
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(FixedSmallSetSchedule, SilentPastTheSchedule) {
  Rng rng(2);
  const Graph g = Graph::from_edges(2, {{0, 1}});
  FixedSmallSetScheduleProtocol protocol(SmallSetSchedule{{{0, 0}, 1}});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(2, session, rng, out);  // beyond round 1
  EXPECT_TRUE(out.empty());
}

TEST(FixedSmallSetScheduleDeathTest, RejectsMalformedSets) {
  const SmallSetSchedule dup{{{5, 5}, 2}};
  EXPECT_DEATH(FixedSmallSetScheduleProtocol{dup}, "precondition");
}

TEST(GuidedSmallSetSearch, SolvesThePathGraphOptimally) {
  const NodeId n = 8;
  const Graph g = path_graph(n);
  GuidedSearchParams params;
  params.round_budget = 10;
  params.generations = 4;
  params.population = 4;
  Rng rng(7);
  const GuidedSearchOutcome outcome =
      guided_small_set_search(g, 0, params, rng);
  // Information moves one hop per round on a path: 7 rounds is optimal, and
  // the greedy seed already achieves it.
  EXPECT_EQ(outcome.best_rounds, 7u);
  EXPECT_TRUE(outcome.certificate.completed);
  // The witness is the far end of the path: last informed, at round 7.
  EXPECT_EQ(outcome.certificate.witness, n - 1);
  EXPECT_EQ(outcome.certificate.rounds_survived, 7u);
  EXPECT_FALSE(outcome.certificate.small_sets.empty());
  EXPECT_TRUE(outcome.certificate.oblivious_probs.empty());
}

TEST(GuidedSmallSetSearch, IncompleteCertificateNamesAnUninformedWitness) {
  const NodeId n = 8;
  const Graph g = path_graph(n);
  GuidedSearchParams params;
  params.round_budget = 3;  // < diameter: completion is impossible
  params.generations = 3;
  params.population = 4;
  Rng rng(11);
  const GuidedSearchOutcome outcome =
      guided_small_set_search(g, 0, params, rng);
  EXPECT_EQ(outcome.best_rounds, params.round_budget + 1);
  EXPECT_FALSE(outcome.certificate.completed);
  EXPECT_LT(outcome.certificate.witness, n);
  // The witness survived the FULL budget uninformed — that is the point.
  EXPECT_EQ(outcome.certificate.rounds_survived, params.round_budget);
  EXPECT_EQ(outcome.completed_fraction, 0.0);
}

class GuidedSearchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    const NodeId n = 256;
    const double ln_n = std::log(static_cast<double>(n));
    instance_ = make_broadcast_instance(
        GnpParams::with_degree(n, ln_n * ln_n), rng);
    source_ = pick_source(instance_.graph, rng);
    params_.round_budget = static_cast<std::uint32_t>(10.0 * ln_n);
    params_.generations = 6;
    params_.population = 4;
    params_.trials_per_candidate = 2;
  }

  GuidedSearchOutcome run_oblivious() {
    Rng rng(1234);
    return guided_oblivious_search(instance_.graph, source_,
                                   context_for(instance_), params_, rng);
  }

  BroadcastInstance instance_;
  NodeId source_ = 0;
  GuidedSearchParams params_;
};

TEST_F(GuidedSearchFixture, CertificateAccountsForEveryProbe) {
  const GuidedSearchOutcome outcome = run_oblivious();
  // seeds (population) + generations × population, ×trials each.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(params_.population) *
      static_cast<std::uint64_t>(params_.trials_per_candidate) *
      static_cast<std::uint64_t>(params_.generations + 1);
  EXPECT_EQ(outcome.certificate.probes, expected);
  EXPECT_LE(outcome.certificate.improvements,
            static_cast<std::uint32_t>(params_.generations));
  EXPECT_LT(outcome.certificate.witness, instance_.graph.num_nodes());
  EXPECT_EQ(outcome.certificate.oblivious_probs.size(), params_.round_budget);
  EXPECT_TRUE(outcome.certificate.small_sets.empty());
  if (outcome.certificate.completed) {
    EXPECT_LE(outcome.certificate.rounds_survived,
              outcome.certificate.rounds);
  } else {
    EXPECT_EQ(outcome.certificate.rounds_survived, params_.round_budget);
  }
}

TEST_F(GuidedSearchFixture, MatchesOrBeatsBlindSamplingAtEqualProbeBudget) {
  const GuidedSearchOutcome guided = run_oblivious();
  // Blind best-of-K sampling with the SAME number of candidate evaluations
  // (the probes then match exactly: candidates × trials_per_candidate).
  ObliviousSearchParams blind;
  blind.round_budget = params_.round_budget;
  blind.num_candidates = params_.population * (params_.generations + 1);
  blind.trials_per_candidate = params_.trials_per_candidate;
  Rng rng(1234);
  const ObliviousSearchOutcome sampled = search_oblivious_schedules(
      instance_.graph, source_, context_for(instance_), blind, rng);
  EXPECT_LE(guided.best_rounds, sampled.best_rounds);
}

}  // namespace
}  // namespace radio
