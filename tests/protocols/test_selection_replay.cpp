// Transmitter selection walks the informed set word by word, or a node list
// kept from an earlier round of the same broadcast, instead of testing all n
// nodes. These replays pin that every protocol doing so picks the same
// nodes, in the same ascending order, with the same draws as a test-local
// scan over all n nodes: before each round of a real broadcast the reference
// replays the round on a copy of the protocol's Rng, and the transmitters and
// the generator state afterwards must both match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/distributed.hpp"
#include "core/lower_bound.hpp"
#include "graph/random_graph.hpp"
#include "protocols/adaptive_backoff.hpp"
#include "protocols/decay.hpp"
#include "protocols/flooding.hpp"
#include "protocols/selective_family.hpp"
#include "protocols/uniform_gossip.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

// n % 64 != 0 and several words, so the walk crosses word boundaries and a
// partial last word; d ≈ 6 keeps the broadcast going for many rounds.
constexpr NodeId kNodes = 300;
constexpr double kEdgeProbability = 0.02;
constexpr std::uint32_t kMaxRounds = 200;

/// The pre-word-walk selection loop: visit every node and ask `rule` about
/// the informed ones only.
std::vector<NodeId> full_scan(const SessionView& view,
                              const std::function<bool(NodeId)>& rule) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < view.num_nodes(); ++v)
    if (view.informed(v) && rule(v)) out.push_back(v);
  return out;
}

using Reference =
    std::function<std::vector<NodeId>(std::uint32_t, const SessionView&, Rng&)>;

/// Broadcasts from `source` with `protocol` (reset, observations fed back as
/// run_protocol does) and checks every round against `reference`. Returns
/// the number of rounds in which some, but not every, node was informed.
int replay(Protocol& protocol, const Reference& reference, std::uint64_t seed,
           NodeId source = 7) {
  Rng graph_rng(seed);
  const Graph g = generate_gnp({kNodes, kEdgeProbability}, graph_rng);
  const ProtocolContext ctx{kNodes, kEdgeProbability};
  protocol.reset(ctx);
  BroadcastSession session(g, source);
  const bool feedback = protocol.wants_observations();
  if (feedback) session.enable_observations();
  Rng rng(seed + 1);
  int partial_rounds = 0;
  std::vector<NodeId> transmitters;
  for (std::uint32_t round = 1; round <= kMaxRounds; ++round) {
    if (session.complete()) break;
    if (session.informed_count() > 1) ++partial_rounds;
    Rng reference_rng = rng;
    const std::vector<NodeId> expected =
        reference(round, SessionView(session), reference_rng);
    transmitters.clear();
    protocol.select_transmitters(round, session, rng, transmitters);
    EXPECT_EQ(transmitters, expected) << "round " << round;
    Rng after = rng;
    Rng reference_after = reference_rng;
    EXPECT_EQ(after(), reference_after()) << "round " << round;
    if (::testing::Test::HasFailure()) return partial_rounds;
    session.step(transmitters);
    if (feedback) protocol.observe(round, session.last_observations());
  }
  return partial_rounds;
}

/// Theorem 7's rule as a full scan: every informed node in rounds ≤ D, and
/// in the tail only those informed by the end of round D unless `late`.
Reference elsasser_gasieniec_reference(
    const ElsasserGasieniecBroadcast& protocol, bool late) {
  return [&protocol, late](std::uint32_t round, const SessionView& view,
                           Rng& rng) {
    const double prob = protocol.transmit_probability(round);
    const bool tail = round > protocol.phase_switch_round();
    return full_scan(view, [&](NodeId v) {
      if (tail && !late &&
          view.informed_round(v) > protocol.phase_switch_round())
        return false;
      return prob >= 1.0 || rng.bernoulli(prob);
    });
  };
}

TEST(SelectionReplay, ElsasserGasieniecBothTails) {
  for (const bool late : {false, true}) {
    DistributedOptions options;
    options.tail_includes_late_informed = late;
    ElsasserGasieniecBroadcast protocol(options);
    const Reference reference = elsasser_gasieniec_reference(protocol, late);
    EXPECT_GT(replay(protocol, reference, 11), 3);
    // The paper's tail list lives for one broadcast: the same instance runs
    // a second one on another graph from another source, and a list kept
    // across reset() would draw over the first broadcast's nodes.
    EXPECT_GT(replay(protocol, reference, 22, 150), 3);
  }
}

TEST(SelectionReplay, ObliviousSequence) {
  const std::vector<double> probabilities = theorem7_oblivious_sequence(
      ProtocolContext{kNodes, kEdgeProbability}, 40);
  ObliviousSequenceProtocol protocol(probabilities);
  const Reference reference = [&](std::uint32_t round,
                                  const SessionView& view, Rng& rng) {
    const double q = round <= probabilities.size() ? probabilities[round - 1]
                                                   : probabilities.back();
    return full_scan(
        view, [&](NodeId) { return q >= 1.0 || rng.bernoulli(q); });
  };
  EXPECT_GT(replay(protocol, reference, 12), 3);
}

TEST(SelectionReplay, UniformGossip) {
  UniformGossipProtocol protocol(0.3);
  const Reference reference = [&](std::uint32_t, const SessionView& view,
                                  Rng& rng) {
    return full_scan(
        view, [&](NodeId) { return rng.bernoulli(protocol.probability()); });
  };
  EXPECT_GT(replay(protocol, reference, 13), 3);
}

TEST(SelectionReplay, AdaptiveBackoffWithFeedback) {
  AdaptiveBackoffProtocol protocol;
  const Reference reference = [&](std::uint32_t round,
                                  const SessionView& view, Rng& rng) {
    return full_scan(view, [&](NodeId v) {
      return rng.bernoulli(protocol.probability_of(v) * protocol.gate(round));
    });
  };
  EXPECT_GT(replay(protocol, reference, 14), 3);
}

TEST(SelectionReplay, SelectiveFamily) {
  SelectiveFamilyProtocol protocol(3);
  const ModularFamily family = build_modular_family(kNodes, 3);
  const Reference reference = [&](std::uint32_t round,
                                  const SessionView& view, Rng&) {
    const ModularFamily::Round& r =
        family.rounds[(round - 1) % family.rounds.size()];
    return full_scan(view,
                     [&](NodeId v) { return ModularFamily::selects(r, v); });
  };
  EXPECT_GT(replay(protocol, reference, 15), 3);
}

TEST(SelectionReplay, FloodingAndDecay) {
  FloodingProtocol flooding;
  const Reference everyone = [](std::uint32_t, const SessionView& view, Rng&) {
    return full_scan(view, [](NodeId) { return true; });
  };
  EXPECT_GT(replay(flooding, everyone, 16), 0);

  // Decay keeps its active set across a phase: the reference does too.
  DecayProtocol decay;
  std::vector<NodeId> active;
  const Reference decay_reference = [&](std::uint32_t round,
                                        const SessionView& view, Rng& rng) {
    const auto phase = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(std::log2(static_cast<double>(kNodes)))));
    if ((round - 1) % phase == 0)
      active = full_scan(view, [](NodeId) { return true; });
    std::vector<NodeId> out = active;
    std::vector<NodeId> kept;
    for (const NodeId v : active)
      if (rng.bernoulli(0.5)) kept.push_back(v);
    active = kept;
    return out;
  };
  EXPECT_GT(replay(decay, decay_reference, 17), 3);
}

}  // namespace
}  // namespace radio
