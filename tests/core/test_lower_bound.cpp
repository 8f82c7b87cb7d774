// Lower-bound machinery: oblivious sequence protocol, the search probe loop,
// adversary searches, Theorem 6 / 8 shape checks on small instances.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/workload.hpp"
#include "core/adversary.hpp"
#include "core/lower_bound.hpp"
#include "sim/channel_kernel.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

TEST(ObliviousSequence, ProbabilityOneIsFlooding) {
  Rng rng(1);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  ObliviousSequenceProtocol protocol({1.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(ObliviousSequence, ProbabilityZeroIsSilence) {
  Rng rng(2);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  ObliviousSequenceProtocol protocol({0.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  for (int round = 1; round <= 5; ++round) {
    out.clear();
    protocol.select_transmitters(static_cast<std::uint32_t>(round), session,
                                 rng, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(ObliviousSequence, LastProbabilityRepeats) {
  Rng rng(3);
  const Graph g = Graph::from_edges(2, {{0, 1}});
  ObliviousSequenceProtocol protocol({0.0, 1.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(10, session, rng, out);  // beyond sequence
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(ObliviousSequence, OnlyInformedTransmit) {
  Rng rng(4);
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  ObliviousSequenceProtocol protocol({1.0});
  BroadcastSession session(g, 2);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
}

TEST(ObliviousSequenceDeathTest, RejectsEmptyOrInvalid) {
  EXPECT_DEATH(ObliviousSequenceProtocol({}), "precondition");
  EXPECT_DEATH(ObliviousSequenceProtocol({0.5, 1.5}), "precondition");
}

// run_probe is run_protocol's loop on a LightSession. Each probe must leave
// what run_protocol leaves on a BroadcastSession fed a copy of the same Rng:
// completion, rounds, informed count and every node's informed round, hence
// the same certificate witness.

/// Forwards to `inner` and checks the Protocol contract that rounds count
/// from 1 after each reset(), so a probe loop that skips reset() fails.
class RoundContract final : public Protocol {
 public:
  explicit RoundContract(Protocol& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool is_distributed() const override { return inner_.is_distributed(); }
  void reset(const ProtocolContext& ctx) override {
    inner_.reset(ctx);
    next_round_ = 1;
  }
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override {
    EXPECT_EQ(round, next_round_++) << "round numbers restart at reset()";
    inner_.select_transmitters(round, session, rng, out);
  }

 private:
  Protocol& inner_;
  std::uint32_t next_round_ = 0;  ///< 0 until the first reset()
};

/// One protocol instance over several streams, as a search reuses one per
/// candidate across its trials.
void expect_probe_matches_engine(Protocol& protocol,
                                 const ProtocolContext& ctx, const Graph& g,
                                 NodeId source, std::uint32_t budget) {
  RoundContract checked(protocol);
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    SCOPED_TRACE("budget " + std::to_string(budget) + ", stream " +
                 std::to_string(stream));
    Rng probe_rng = Rng::for_stream(31, stream);
    Rng engine_rng = probe_rng;
    const LightSession<Graph> probe =
        run_probe(checked, ctx, g, source, probe_rng, budget);
    BroadcastSession session(g, source);
    const BroadcastRun run =
        run_protocol(checked, ctx, session, engine_rng, budget);
    EXPECT_EQ(probe.complete(), run.completed);
    EXPECT_EQ(probe.current_round(), run.rounds);
    EXPECT_EQ(probe.informed_count(), run.informed);
    const SessionView view = probe.view();
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      ASSERT_EQ(view.informed_round(v), session.informed_round(v))
          << "node " << v;
  }
}

/// Runs the Theorem 7 sequence, a random oblivious sequence, the small-set
/// schedule a guided search certifies and a random small-set schedule, at a
/// budget too short to complete and at 10·ln n.
void expect_probes_match_engine(const BroadcastInstance& instance, Rng& rng) {
  const Graph& g = instance.graph;
  const NodeId n = g.num_nodes();
  const ProtocolContext ctx = context_for(instance);
  const NodeId source = pick_source(g, rng);
  const auto generous =
      static_cast<std::uint32_t>(10.0 * std::log(static_cast<double>(n)));
  for (const std::uint32_t budget : {2u, generous}) {
    ObliviousSequenceProtocol theorem7(
        theorem7_oblivious_sequence(ctx, budget));
    expect_probe_matches_engine(theorem7, ctx, g, source, budget);

    std::vector<double> probs(budget);
    for (double& q : probs)
      q = std::exp(std::log(1.0 / static_cast<double>(n)) * rng.uniform());
    ObliviousSequenceProtocol random_sequence(probs);
    expect_probe_matches_engine(random_sequence, ctx, g, source, budget);

    GuidedSearchParams search;
    search.round_budget = budget;
    search.generations = 2;
    search.population = 4;
    FixedSmallSetScheduleProtocol certified(
        guided_small_set_search(g, source, search, rng).certificate.small_sets);
    expect_probe_matches_engine(certified, ctx, g, source, budget);

    SmallSetSchedule sets(budget);
    for (SmallRoundSet& set : sets) {
      set.size = 2;
      set.node[0] = static_cast<NodeId>(rng.uniform_below(n));
      do {
        set.node[1] = static_cast<NodeId>(rng.uniform_below(n));
      } while (set.node[1] == set.node[0]);
    }
    FixedSmallSetScheduleProtocol random_sets(sets);
    expect_probe_matches_engine(random_sets, ctx, g, source, budget);
  }
}

TEST(ProbeLoop, MatchesTheEngineOnSparseGnp) {
  Rng rng(12);
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  expect_probes_match_engine(instance, rng);
}

TEST(ProbeLoop, MatchesTheEngineOnTheRowFold) {
  Rng rng(13);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams{128, 0.5}, rng);
  // A lone transmitter already takes the row fold here, and each further
  // one only tips the cost model further toward it.
  RoundFold fold(instance.graph.num_nodes());
  const NodeId lone[] = {0};
  ASSERT_EQ(fold.fold(instance.graph, lone), RoundPath::kDense);
  expect_probes_match_engine(instance, rng);
}

TEST(ObliviousSearch, FindsCompletionWithGenerousBudget) {
  Rng rng(5);
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = static_cast<std::uint32_t>(15.0 * ln_n);
  params.num_candidates = 8;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  // The Theorem-7 sequence is candidate 0 and should complete.
  EXPECT_GT(outcome.completed_fraction, 0.0);
  EXPECT_LE(outcome.best_rounds, params.round_budget);
  EXPECT_GE(outcome.best_candidate, 0);
}

TEST(ObliviousSearch, BestRoundsRespectsLogLowerBoundScale) {
  Rng rng(6);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = static_cast<std::uint32_t>(20.0 * ln_n);
  params.num_candidates = 16;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  // Theorem 8: no oblivious schedule beats Omega(ln n). Even the best found
  // needs a healthy fraction of ln n (diameter alone is ~2-3 here, so this
  // tests the collision bottleneck, not distance).
  EXPECT_GE(static_cast<double>(outcome.best_rounds), 0.9 * ln_n);
}

TEST(ObliviousSearch, NoCandidateCompletesWithinTinyBudget) {
  Rng rng(7);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = 3;  // << ln n = 6.9
  params.num_candidates = 24;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  EXPECT_EQ(outcome.completed_fraction, 0.0);
  EXPECT_EQ(outcome.best_rounds, params.round_budget + 1);
  EXPECT_EQ(outcome.best_candidate, -1);
}

// Theorem 6's small-set adversary is the guided search of core/adversary.hpp
// (the schedules E7 runs); these pin the theorem's shape on small instances.
TEST(SmallSetAdversary, CannotFinishFastOnDenseGraph) {
  Rng rng(8);
  const NodeId n = 256;
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams{n, 0.5}, rng);
  GuidedSearchParams params;
  params.round_budget = 3;  // well under log2 n = 8 rounds of halving
  params.generations = 8;
  params.population = 8;
  const GuidedSearchOutcome outcome =
      guided_small_set_search(instance.graph, 0, params, rng);
  // Theorem 6: no schedule of <=2-sets completes in c*ln n, even searched.
  EXPECT_EQ(outcome.completed_fraction, 0.0);
  EXPECT_FALSE(outcome.certificate.completed);
  EXPECT_EQ(outcome.best_rounds, params.round_budget + 1);
}

TEST(SmallSetAdversary, EventuallyCompletesWithLargeBudget) {
  Rng rng(9);
  const NodeId n = 64;
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams{n, 0.5}, rng);
  GuidedSearchParams params;
  params.round_budget = 600;
  params.generations = 4;
  params.population = 4;
  const GuidedSearchOutcome outcome =
      guided_small_set_search(instance.graph, 0, params, rng);
  EXPECT_GT(outcome.completed_fraction, 0.5);
  EXPECT_TRUE(outcome.certificate.completed);
  // Each round informs about half of the rest, so even the searched best
  // stays on the log2 n scale (a lucky round or two shaves a little off).
  const auto log2_n =
      static_cast<std::uint32_t>(std::log2(static_cast<double>(n)));
  EXPECT_GE(outcome.best_rounds, log2_n - 3);
  EXPECT_LE(outcome.best_rounds, 2 * log2_n);
}

TEST(SmallSetAdversary, SingletonSetsOnPathTrackDiameter) {
  // On a path with singleton transmissions the best possible is the
  // diameter: one hop per round.
  std::vector<Edge> edges;
  const NodeId n = 8;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  const Graph g = Graph::from_edges(n, edges);
  Rng rng(10);
  GuidedSearchParams params;
  params.round_budget = 400;
  params.generations = 4;
  params.population = 8;
  params.max_set_size = 1;
  const GuidedSearchOutcome outcome = guided_small_set_search(g, 0, params, rng);
  EXPECT_GT(outcome.completed_fraction, 0.0);
  EXPECT_EQ(outcome.best_rounds, n - 1);  // reaches, never beats, the diameter
}

TEST(DiameterBound, MatchesEccentricity) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(broadcast_diameter_bound(g, 0), 3u);
  EXPECT_EQ(broadcast_diameter_bound(g, 1), 2u);
}

}  // namespace
}  // namespace radio
