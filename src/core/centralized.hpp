// Theorem 5: centralized radio broadcast in O(ln n / ln d + ln d) rounds.
//
// The builder knows the whole topology (the centralized model of §3.1) and
// emits an explicit per-round transmitter schedule in three phases:
//
//   Phase 1 — parity pipeline. For the small BFS layers (size < n/d), nodes
//   at even distance from the source transmit in odd rounds and nodes at odd
//   distance in even rounds. Alternation means a frontier layer never jams
//   itself against its parent layer; Lemma 3 (layers are near-trees) makes
//   collisions within a layer rare, so each round pushes the message one
//   layer deeper, informing all but O(1) nodes per layer.
//
//   Phase 2 — 1/d-selective rounds. Starting from the first layer of size
//   >= n/d, the builder transmits Θ(n/d) chosen nodes once, then for c·ln d
//   rounds a fresh (disjoint from previous rounds) 1/d-fraction of the
//   informed nodes. Lemma 4 (first statement): each such round gives a
//   constant fraction of the uninformed nodes exactly one transmitting
//   neighbor, so the uninformed count decays geometrically to O(n/d²).
//
//   Phase 3 — independent-cover mop-up. The survivors get private
//   informants: an independent matching from the informed side (Lemma 4,
//   second statement / Proposition 2) clears all of them in one round per
//   sweep; stragglers in the small layers are swept the same way, walking
//   back down the layer structure.
//
// The builder simulates its own schedule while constructing it (it owns the
// topology, so this is legitimate centralized preprocessing) and guarantees
// the emitted schedule is *legal*: every scheduled transmitter is informed
// by the time it transmits.
//
// Backend-agnostic since the implicit-graph refactor: the builder is
// templated on GraphBackend and simulates its own rounds through
// LightSession (sim/light_session.hpp) instead of a full BroadcastSession —
// it only ever schedules informed transmitters on a fault-free channel, for
// which the exactly-one-transmitting-neighbor delivery rule reduces to
// bitset algebra. On the materialized Graph this reproduces the
// engine-backed builder bit for bit; on ImplicitGnp it runs without ever
// materializing an edge list.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/backend.hpp"
#include "graph/bfs.hpp"
#include "graph/covering.hpp"
#include "graph/graph.hpp"
#include "sim/light_session.hpp"
#include "sim/schedule.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace radio {

struct CentralizedOptions {
  /// Multiplier c for the c·ln d selective rounds of phase 2. Phase 2 also
  /// exits early once the uninformed count drops below n/d².
  double selective_rounds_factor = 4.0;

  /// Per-node sampling rate in phase 2 is `selective_rate_scale / d`.
  double selective_rate_scale = 1.0;

  /// Mop-up strategy: prefer a one-shot private-neighbor matching; fall back
  /// to sampled independent covers when the matching is incomplete.
  bool use_private_matching = true;

  /// Ablation (E9): replace phase 1's parity pipeline with "every informed
  /// small-layer node transmits every round" (self-jamming flood).
  bool ablate_parity = false;

  /// Ablation (E9): allow phase-2 sets to reuse nodes from earlier rounds
  /// instead of the paper's disjointness requirement.
  bool ablate_disjoint_sets = false;
};

/// Build report: where the phases ended up, for E9's ablation table and for
/// asserting the O(ln n/ln d + ln d) shape phase by phase.
struct CentralizedBuildReport {
  bool completed = false;
  std::uint32_t total_rounds = 0;
  std::uint32_t phase1_rounds = 0;  ///< parity pipeline
  std::uint32_t phase2_rounds = 0;  ///< 1/d-selective
  std::uint32_t phase3_rounds = 0;  ///< independent-cover mop-up
  std::uint32_t pivot_layer = 0;    ///< first layer of size >= n/d
  std::uint32_t eccentricity = 0;   ///< of the source
  std::size_t uninformed_after_phase1 = 0;
  std::size_t uninformed_after_phase2 = 0;
  std::uint64_t total_transmissions = 0;
};

struct CentralizedResult {
  Schedule schedule;
  CentralizedBuildReport report;
};

namespace centralized_detail {

/// Draws per phase-2 round (and per phase-3 sampled cover): the best of this
/// many samples is emitted, so unproductive draws are retried at build time
/// (the schedule must make progress deterministically once built).
inline constexpr int kResampleAttempts = 8;

/// Hard cap on mop-up sweeps before the builder reports failure.
inline constexpr int kMaxMopupSweeps = 64;

/// Uniform sample of exactly min(k, |candidates|) elements
/// (partial Fisher–Yates on a copy).
inline std::vector<NodeId> sample_exactly(std::span<const NodeId> candidates,
                                          std::size_t k, Rng& rng) {
  std::vector<NodeId> pool(candidates.begin(), candidates.end());
  k = std::min(k, pool.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace centralized_detail

/// Builds a Theorem-5 schedule for broadcasting from `source` on `g`.
/// `expected_degree` is the model parameter d = p·n the phase lengths are
/// calibrated against (pass the realized mean degree when p is unknown).
/// Requires a connected graph; reports completed=false if the round caps were
/// exhausted (out-of-regime parameters).
template <GraphBackend G>
CentralizedResult build_centralized_schedule(
    const G& g, NodeId source, double expected_degree, Rng& rng,
    const CentralizedOptions& options = {}) {
  RADIO_EXPECTS(g.num_nodes() > 0);
  RADIO_EXPECTS(source < g.num_nodes());
  RADIO_EXPECTS(expected_degree > 1.0);

  const NodeId n = g.num_nodes();
  const double d = expected_degree;
  const LayerDecomposition layers = bfs_layers(g, source);

  CentralizedResult result;
  CentralizedBuildReport& report = result.report;
  report.eccentricity = layers.eccentricity();

  LightSession<G> session(g, source);
  auto emit = [&](std::vector<NodeId> transmitters, const char* phase) {
    session.step(transmitters);
    result.schedule.rounds.push_back(std::move(transmitters));
    result.schedule.phase_of.emplace_back(phase);
  };

  // ---------------------------------------------------------------- Phase 1
  // First layer of size >= n/d is where the pipeline hands over to selective
  // rounds (the paper's T_D(u), "the first layer with Omega(n/d) nodes").
  const auto big_threshold = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(n) / d));
  std::size_t pivot = layers.first_layer_of_size(big_threshold);
  if (pivot >= layers.layers.size()) pivot = layers.layers.size() - 1;
  report.pivot_layer = static_cast<std::uint32_t>(pivot);

  const std::uint32_t phase1_min = static_cast<std::uint32_t>(pivot);
  const std::uint32_t phase1_max = 2 * phase1_min + 8;
  std::uint32_t stagnant = 0;
  std::vector<NodeId> transmitters;
  for (std::uint32_t round = 1; round <= phase1_max; ++round) {
    if (phase1_min == 0) break;
    transmitters.clear();
    for (std::size_t layer = 0; layer < pivot; ++layer) {
      // Even-distance layers transmit in odd rounds, odd-distance in even
      // rounds (the paper's alternation); the ablation floods every round.
      if (!options.ablate_parity && (layer % 2) != ((round - 1) % 2)) continue;
      for (NodeId v : layers.layers[layer])
        if (session.informed(v)) transmitters.push_back(v);
    }
    emit(transmitters, "phase1:parity");
    ++report.phase1_rounds;
    const bool progressed = session.last_newly() > 0;
    stagnant = progressed ? 0 : stagnant + 1;
    if (round >= phase1_min && stagnant >= 2) break;
    if (session.complete()) break;
  }
  report.uninformed_after_phase1 = n - session.informed_count();

  // ---------------------------------------------------------------- Phase 2
  Bitset used(n);  // nodes already spent in a selective round
  if (!session.complete()) {
    // Kick-off round: Theta(n/d) informed vertices of the pivot layer.
    std::vector<NodeId> pivot_informed;
    for (NodeId v : layers.layers[pivot])
      if (session.informed(v)) pivot_informed.push_back(v);
    if (pivot_informed.empty()) {
      // The pipeline never reached the pivot layer (tiny/dense corner
      // cases): fall back to every informed node — for pivot 0 this is just
      // the source transmitting alone.
      pivot_informed = session.informed_nodes();
    }
    std::vector<NodeId> kick =
        centralized_detail::sample_exactly(pivot_informed, big_threshold, rng);
    for (NodeId v : kick) used.set(v);
    emit(std::move(kick), "phase2:kickoff");
    ++report.phase2_rounds;

    const auto selective_budget = static_cast<std::uint32_t>(
        std::ceil(options.selective_rounds_factor * std::max(1.0, std::log(d))));
    const auto residual_target = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(n) / (d * d)));
    const double rate = std::min(1.0, options.selective_rate_scale / d);

    Bitset candidates(n);  // informed & ~used (informed under the ablation)
    for (std::uint32_t k = 0; k < selective_budget; ++k) {
      if (session.complete()) break;
      if (n - session.informed_count() <= residual_target) break;
      const std::span<const std::uint64_t> informed =
          session.informed_set().words();
      const std::span<const std::uint64_t> spent = used.words();
      const std::span<std::uint64_t> words = candidates.words();
      for (std::size_t wi = 0; wi < words.size(); ++wi)
        words[wi] = options.ablate_disjoint_sets
                        ? informed[wi]
                        : andnot(informed[wi], spent[wi]);
      const std::size_t candidate_count = candidates.count();
      if (candidate_count == 0) break;

      // Build-time resampling: the schedule must be productive once frozen,
      // so unproductive draws are discarded here rather than replayed later.
      std::vector<NodeId> best;
      std::size_t best_gain = 0;
      for (int attempt = 0; attempt < centralized_detail::kResampleAttempts;
           ++attempt) {
        std::vector<NodeId> sample;
        sample.reserve(static_cast<std::size_t>(
                           rate * static_cast<double>(candidate_count)) +
                       8);
        candidates.for_each_sampled(rate, rng, [&](std::size_t v) {
          sample.push_back(static_cast<NodeId>(v));
        });
        const std::size_t gain = session.preview_new_informed(sample);
        if (gain > best_gain || best.empty()) {
          best_gain = gain;
          best = std::move(sample);
        }
        // Expected yield of a 1/d-selective round is a constant fraction of
        // the uninformed nodes (Lemma 4: each uninformed node has exactly
        // one sampled neighbor with probability ~lambda*e^-lambda); accept
        // the draw once it reaches a healthy share of that.
        if (static_cast<double>(best_gain) >=
            0.15 * static_cast<double>(n - session.informed_count()))
          break;
      }
      for (NodeId v : best) used.set(v);
      emit(std::move(best), "phase2:selective");
      ++report.phase2_rounds;
    }
  }
  report.uninformed_after_phase2 = n - session.informed_count();

  // ---------------------------------------------------------------- Phase 3
  const double mopup_rate = std::min(1.0, 1.0 / d);
  for (int sweep = 0; sweep < centralized_detail::kMaxMopupSweeps; ++sweep) {
    if (session.complete()) break;
    const std::vector<NodeId> y = session.uninformed_nodes();
    const std::vector<NodeId> x = session.informed_nodes();

    if (options.use_private_matching) {
      const FullMatching matching = private_neighbor_matching(g, x, y);
      if (matching.complete) {
        std::vector<NodeId> cover;
        cover.reserve(matching.pairs.size());
        for (const auto& [xx, yy] : matching.pairs) {
          (void)yy;
          cover.push_back(xx);
        }
        emit(std::move(cover), "phase3:matching");
        ++report.phase3_rounds;
        continue;
      }
    }

    // Fallback: best sampled independent cover out of a few draws
    // (Lemma 4's probabilistic construction, derandomized by selection).
    SampledCover best;
    for (int attempt = 0; attempt < centralized_detail::kResampleAttempts;
         ++attempt) {
      SampledCover cover = sample_independent_cover(g, x, y, mopup_rate, rng);
      if (cover.covered.size() > best.covered.size() ||
          (best.sample.empty() && attempt == 0))
        best = std::move(cover);
      if (best.covered.size() == y.size()) break;
    }
    if (best.covered.empty() && best.sample.empty()) {
      // Degenerate rate (d >= n): transmit a single informed neighbor of the
      // first uninformed node.
      for (NodeId w : g.neighbors(y.front())) {
        if (session.informed(w)) {
          best.sample.assign(1, w);
          break;
        }
      }
    }
    emit(std::move(best.sample), "phase3:sampled_cover");
    ++report.phase3_rounds;
  }

  report.completed = session.complete();
  report.total_rounds = static_cast<std::uint32_t>(result.schedule.length());
  report.total_transmissions = result.schedule.total_transmissions();
  return result;
}

extern template CentralizedResult build_centralized_schedule<Graph>(
    const Graph&, NodeId, double, Rng&, const CentralizedOptions&);

/// The paper's target round count for given (n, d): ln n / ln d + ln d.
/// Used by fits and sanity bounds, not by the builder.
double centralized_target_rounds(double n, double d) noexcept;

}  // namespace radio
