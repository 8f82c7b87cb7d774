// Oracle suite for the round fold (sim/channel_kernel.hpp): every consumer of
// the fold — RadioEngine on both forced paths and on the cost model,
// LightSession::step, LightSession::preview_new_informed and GossipSession —
// must agree with an obviously correct listener-side transcription of §1.1
// across random graphs, informed sets and transmitter sets, and the pull
// fold must classify every uninformed listener as the list fold does. Sizes
// include n > 4096 (more than one dirty-index word) and n % 64 != 0; engine
// transmitter sets include uninformed nodes, which jam without delivering.
// Deliveries are compared unsorted: the engine must append them in ascending
// id order, which the loss fault model's per-delivery draws depend on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "gossip/gossip_session.hpp"
#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"
#include "sim/engine.hpp"
#include "sim/light_session.hpp"

namespace radio {
namespace {

struct ReferenceOutcome {
  std::vector<NodeId> delivered;  ///< ascending
  std::uint32_t collisions = 0;
  std::uint32_t redundant = 0;
  std::vector<ChannelObservation> observations;  ///< one per node
  std::vector<NodeId> sender;  ///< unique transmitting neighbor, or invalid
};

/// Straight transcription of §1.1: for every node, count transmitting
/// neighbors directly.
template <GraphBackend G>
ReferenceOutcome reference_step(const G& g,
                                std::span<const NodeId> transmitters,
                                const Bitset& informed) {
  const NodeId n = g.num_nodes();
  ReferenceOutcome out;
  out.observations.assign(n, ChannelObservation::kSilence);
  out.sender.assign(n, kInvalidNode);
  Bitset is_tx(n);
  for (NodeId t : transmitters) is_tx.set(t);
  for (NodeId w = 0; w < n; ++w) {
    if (is_tx.test(w)) {  // transmitting, not listening
      out.observations[w] = ChannelObservation::kTransmitting;
      continue;
    }
    std::uint32_t hits = 0;
    NodeId sender = kInvalidNode;
    for (NodeId v : g.neighbors(w)) {
      if (is_tx.test(v)) {
        ++hits;
        sender = v;
      }
    }
    if (hits >= 2) {
      ++out.collisions;
      out.observations[w] = ChannelObservation::kCollision;
    } else if (hits == 1) {
      out.observations[w] = ChannelObservation::kMessage;
      out.sender[w] = sender;
      if (informed.test(sender)) {
        if (informed.test(w))
          ++out.redundant;
        else
          out.delivered.push_back(w);
      }
    }
  }
  return out;
}

/// Each node of `pool` independently with probability `fraction`.
std::vector<NodeId> sample_nodes(std::span<const NodeId> pool, double fraction,
                                 Rng& rng) {
  std::vector<NodeId> out;
  for (NodeId v : pool)
    if (rng.bernoulli(fraction)) out.push_back(v);
  return out;
}

struct Scenario {
  NodeId n;
  double p;
  double informed_fraction;
  double tx_fraction;
};

// Field by field, so neither gtest's output nor the ctest names that
// gtest_discover_tests derives from it carry the struct's padding bytes.
void PrintTo(const Scenario& s, std::ostream* os) {
  *os << "n=" << s.n << " p=" << s.p << " informed=" << s.informed_fraction
      << " tx=" << s.tx_fraction;
}

class EngineEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(EngineEquivalence, MatchesReferenceOnRandomRounds) {
  const Scenario s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.n) * 31 +
          static_cast<std::uint64_t>(s.p * 1000));
  const Graph g = generate_gnp({s.n, s.p}, rng);
  RadioEngine automatic(g);
  RadioEngine sparse(g);
  RadioEngine dense(g);
  sparse.force_path(RoundPath::kSparse);
  dense.force_path(RoundPath::kDense);
  for (RadioEngine* engine : {&automatic, &sparse, &dense})
    engine->record_observations(true);

  // Rounds where the forced list fold must look senders up, because some
  // transmitter is uninformed: the only rounds it records writers in.
  int list_rounds_with_uninformed_tx = 0;
  for (int round = 0; round < 12; ++round) {
    Bitset informed(g.num_nodes());
    std::vector<NodeId> transmitters;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.bernoulli(s.informed_fraction)) informed.set(v);
      if (rng.bernoulli(s.tx_fraction)) transmitters.push_back(v);
    }
    for (NodeId t : transmitters)
      if (!informed.test(t)) {
        ++list_rounds_with_uninformed_tx;
        break;
      }
    const ReferenceOutcome ref = reference_step(g, transmitters, informed);

    for (RadioEngine* engine : {&automatic, &sparse, &dense}) {
      std::vector<NodeId> delivered;
      const RadioEngine::Outcome fast =
          engine->step(transmitters, informed, delivered);
      const std::string path =
          engine->last_path() == RoundPath::kDense ? "dense" : "sparse";
      EXPECT_EQ(delivered, ref.delivered) << path << " round " << round;
      EXPECT_EQ(fast.collisions, ref.collisions) << path << " round " << round;
      EXPECT_EQ(fast.redundant, ref.redundant) << path << " round " << round;
      const std::span<const ChannelObservation> obs =
          engine->last_observations();
      ASSERT_EQ(obs.size(), ref.observations.size());
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        ASSERT_EQ(obs[v], ref.observations[v])
            << path << " round " << round << " node " << v;
    }
  }
  if (s.informed_fraction < 1.0) {
    EXPECT_GT(list_rounds_with_uninformed_tx, 0)
        << "no list-fold round looked a sender up";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EngineEquivalence,
    ::testing::Values(Scenario{30, 0.2, 0.5, 0.3}, Scenario{100, 0.05, 0.2, 0.1},
                      Scenario{100, 0.05, 0.9, 0.9}, Scenario{250, 0.02, 0.5, 0.02},
                      Scenario{250, 0.3, 0.1, 0.5}, Scenario{60, 0.9, 0.5, 0.5},
                      Scenario{40, 0.1, 0.0, 0.4}, Scenario{40, 0.1, 1.0, 0.05},
                      // More than one dirty-index word, n % 64 != 0.
                      Scenario{4133, 0.002, 0.5, 0.05},
                      Scenario{4133, 0.05, 0.3, 0.2},
                      Scenario{8257, 0.001, 0.9, 0.3},
                      // Smallest n, half the pairs adjacent.
                      Scenario{24, 0.5, 0.5, 0.5}),
    [](const ::testing::TestParamInfo<Scenario>& pinfo) {
      std::string name = "n";
      name += std::to_string(pinfo.param.n);
      name += "_case";
      name += std::to_string(pinfo.index);
      return name;
    });

/// How many folds took each RoundPath, indexed by its value.
using PathCounts = std::array<int, 3>;

/// Drives a LightSession from `source` with random informed transmitter
/// sets; before each step, previews a second random informed sample. Both
/// must match the reference round, the preview must leave the session
/// untouched, and the session's view must report n, the informed count and
/// the round of every delivery (and the graph itself on a Graph). Adds the
/// path of every preview and step to `paths`.
template <GraphBackend G>
void check_light_session(const G& g, NodeId source, double tx_fraction,
                         int rounds, Rng& rng, PathCounts& paths) {
  LightSession<G> session(g, source);
  for (int round = 0; round < rounds && !session.complete(); ++round) {
    const Bitset before = session.informed_set();
    const std::vector<NodeId> informed = session.informed_nodes();

    const std::vector<NodeId> sample = sample_nodes(informed, tx_fraction, rng);
    EXPECT_EQ(session.preview_new_informed(sample),
              reference_step(g, sample, before).delivered.size())
        << "preview, round " << round;
    EXPECT_EQ(session.informed_set(), before) << "preview changed the session";
    ++paths[static_cast<std::size_t>(session.last_path())];

    const std::vector<NodeId> transmitters =
        sample_nodes(informed, tx_fraction, rng);
    const ReferenceOutcome ref = reference_step(g, transmitters, before);
    session.step(transmitters);
    ++paths[static_cast<std::size_t>(session.last_path())];
    Bitset expected = before;
    for (NodeId w : ref.delivered) expected.set(w);
    EXPECT_EQ(session.informed_set(), expected) << "step, round " << round;
    EXPECT_EQ(session.last_newly(), ref.delivered.size()) << "round " << round;
    EXPECT_EQ(session.informed_count(), expected.count());

    const SessionView view = session.view();
    EXPECT_EQ(view.num_nodes(), g.num_nodes());
    if constexpr (std::is_same_v<G, Graph>) {
      EXPECT_EQ(&view.graph(), &g);
    }
    EXPECT_EQ(view.informed_count(), expected.count()) << "round " << round;
    const auto step_round = static_cast<std::uint32_t>(round + 1);
    EXPECT_EQ(session.current_round(), step_round);
    for (NodeId w : ref.delivered)
      EXPECT_EQ(view.informed_round(w), step_round)
          << "round " << round << " node " << w;
  }
  EXPECT_EQ(session.view().informed_round(source), 0u);
}

TEST(FoldOracle, LightSessionAndPreviewMatchReferenceOnGraph) {
  PathCounts paths{};
  const struct {
    NodeId n;
    double p;
    double tx_fraction;
  } cases[] = {{4133, 0.002, 0.5}, {4133, 0.3, 0.3}, {777, 0.6, 0.8},
               // A large share of a soon nearly full informed set transmits:
               // the late rounds pull.
               {3000, 0.004, 0.7}};
  for (const auto& c : cases) {
    Rng rng = Rng::for_stream(0xF01D, c.n * 7 + static_cast<NodeId>(c.p * 100));
    const Graph g = generate_gnp({c.n, c.p}, rng);
    check_light_session(g, 0, c.tx_fraction, 14, rng, paths);
  }
  EXPECT_GT(paths[static_cast<std::size_t>(RoundPath::kSparse)], 0)
      << "no fold took the adjacency-list fold";
  EXPECT_GT(paths[static_cast<std::size_t>(RoundPath::kDense)], 0)
      << "no fold took the bitmap-row fold";
  EXPECT_GT(paths[static_cast<std::size_t>(RoundPath::kPull)], 0)
      << "no fold took the pull fold";
}

TEST(FoldOracle, LightSessionAndPreviewMatchReferenceOnImplicitGnp) {
  PathCounts paths{};
  Rng rng = Rng::for_stream(0xF01D, 1);
  const ImplicitGnp g(4133, 0.002, 77);
  check_light_session(g, 5, 0.5, 14, rng, paths);
  EXPECT_GT(paths[static_cast<std::size_t>(RoundPath::kSparse)], 0)
      << "no fold took the adjacency-list fold";
  EXPECT_GT(paths[static_cast<std::size_t>(RoundPath::kPull)], 0)
      << "no fold took the pull fold";
  EXPECT_EQ(paths[static_cast<std::size_t>(RoundPath::kDense)], 0)
      << "ImplicitGnp has no bitmap rows";
}

/// Folds one round of `transmitters` (all informed) both ways and checks
/// that fold_pull classifies every listener outside `informed` exactly as
/// fold_lists does, word by word: its fresh receptions (unique & ~informed)
/// and its collisions.
template <GraphBackend G>
void expect_pull_matches_lists(const G& g, const Bitset& informed,
                               std::span<const NodeId> transmitters) {
  const std::size_t words = informed.words().size();
  const auto collect = [&](RoundFold& fold, std::vector<std::uint64_t>& fresh,
                           std::vector<std::uint64_t>& jammed) {
    fresh.assign(words, 0);
    jammed.assign(words, 0);
    fold.read_out([&](std::size_t base, std::uint64_t collided,
                      std::uint64_t unique) {
      const std::uint64_t known = informed.words()[base / 64];
      fresh[base / 64] = andnot(unique, known);
      jammed[base / 64] = andnot(collided, known);
    });
  };
  RoundFold fold(g.num_nodes());
  fold.mark_transmitters(transmitters);
  std::vector<std::uint64_t> list_fresh, list_jammed, pull_fresh, pull_jammed;
  fold.fold_lists(g, transmitters);
  collect(fold, list_fresh, list_jammed);
  fold.fold_pull(g, informed);
  collect(fold, pull_fresh, pull_jammed);
  fold.clear_transmitters(transmitters);
  for (std::size_t wi = 0; wi < words; ++wi) {
    ASSERT_EQ(pull_fresh[wi], list_fresh[wi]) << "fresh word " << wi;
    ASSERT_EQ(pull_jammed[wi], list_jammed[wi]) << "collided word " << wi;
  }
}

TEST(FoldOracle, PullFoldMatchesListFoldWordByWord) {
  const ImplicitGnp implicit(4133, 0.003, 78);
  const Graph implicit_twin = implicit.materialize();
  const struct {
    NodeId n;
    double p;
  } cases[] = {{4133, 0.002}, {777, 0.05}, {200, 0.4}, {64, 0.1}};
  Rng rng = Rng::for_stream(0x9011, 3);
  for (const double informed_fraction : {0.02, 0.5, 0.97}) {
    for (const double tx_fraction : {0.01, 0.3, 1.0}) {
      for (const auto& c : cases) {
        const Graph g = generate_gnp({c.n, c.p}, rng);
        Bitset informed(c.n);
        std::vector<NodeId> members;
        for (NodeId v = 0; v < c.n; ++v)
          if (rng.bernoulli(informed_fraction)) informed.set(v);
        informed.collect(members);
        const std::vector<NodeId> tx = sample_nodes(members, tx_fraction, rng);
        expect_pull_matches_lists(g, informed, tx);
      }
      Bitset informed(implicit.num_nodes());
      std::vector<NodeId> members;
      for (NodeId v = 0; v < implicit.num_nodes(); ++v)
        if (rng.bernoulli(informed_fraction)) informed.set(v);
      informed.collect(members);
      const std::vector<NodeId> tx = sample_nodes(members, tx_fraction, rng);
      expect_pull_matches_lists(implicit, informed, tx);
      expect_pull_matches_lists(implicit_twin, informed, tx);
    }
  }
}

TEST(FoldOracle, GossipSessionMatchesReference) {
  int rounds_by_path[2] = {0, 0};
  const struct {
    NodeId n;
    double p;
    double tx_fraction;
  } cases[] = {{4133, 0.002, 0.1}, {4133, 0.3, 0.3}, {200, 0.6, 0.5}};
  for (const auto& c : cases) {
    Rng rng = Rng::for_stream(0x6055, c.n * 7 + static_cast<NodeId>(c.p * 100));
    const Graph g = generate_gnp({c.n, c.p}, rng);
    const NodeId n = g.num_nodes();
    GossipSession session(g);
    // The model: every node's rumor set, advanced by the reference round.
    std::vector<Bitset> known(n, Bitset(n));
    for (NodeId v = 0; v < n; ++v) known[v].set(v);
    Bitset everyone(n);
    for (NodeId v = 0; v < n; ++v) everyone.set(v);
    std::vector<NodeId> all(n);
    for (NodeId v = 0; v < n; ++v) all[v] = v;

    for (int round = 0; round < 4; ++round) {
      const std::vector<NodeId> transmitters =
          sample_nodes(all, c.tx_fraction, rng);
      ++rounds_by_path[dense_round_pays(
          n, transmitters.size(), sum_transmitter_degrees(g, transmitters))];
      // Every node holds its own rumor, so every unique reception carries.
      const ReferenceOutcome ref = reference_step(g, transmitters, everyone);
      const std::vector<Bitset> before = known;
      std::uint32_t receivers = 0;
      std::uint64_t moved = 0;
      for (NodeId w = 0; w < n; ++w) {
        if (ref.sender[w] == kInvalidNode) continue;
        ++receivers;
        moved += known[w].set_union(before[ref.sender[w]]);
      }

      const GossipRoundStats& stats = session.step(transmitters);
      EXPECT_EQ(stats.receivers, receivers) << "round " << round;
      EXPECT_EQ(stats.collisions, ref.collisions) << "round " << round;
      EXPECT_EQ(stats.rumors_moved, moved) << "round " << round;
      // Knowledge only grows, so equal counts plus model ⊆ session is
      // equality.
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(session.knowledge_count(v), known[v].count())
            << "round " << round << " node " << v;
        const std::span<const std::uint64_t> words = known[v].words();
        for (std::size_t wi = 0; wi < words.size(); ++wi)
          for_each_set_bit(words[wi], wi * 64, [&](std::size_t r) {
            EXPECT_TRUE(session.knows(v, static_cast<NodeId>(r)))
                << "round " << round << " node " << v << " rumor " << r;
          });
      }
    }
  }
  EXPECT_GT(rounds_by_path[0], 0) << "no round took the adjacency-list fold";
  EXPECT_GT(rounds_by_path[1], 0) << "no round took the bitmap-row fold";
}

}  // namespace
}  // namespace radio
