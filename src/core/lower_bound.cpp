#include "core/lower_bound.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/bfs.hpp"
#include "util/assert.hpp"

namespace radio {

ObliviousSequenceProtocol::ObliviousSequenceProtocol(
    std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {
  RADIO_EXPECTS(!probabilities_.empty());
  for (double q : probabilities_) RADIO_EXPECTS(q >= 0.0 && q <= 1.0);
}

void ObliviousSequenceProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  const double q = round <= probabilities_.size()
                       ? probabilities_[round - 1]
                       : probabilities_.back();
  session.informed_set().for_each_sampled(q, rng, [&](std::size_t v) {
    out.push_back(static_cast<NodeId>(v));
  });
}

std::vector<double> theorem7_oblivious_sequence(const ProtocolContext& ctx,
                                                std::uint32_t budget) {
  const double n = static_cast<double>(ctx.n);
  const double d = std::max(2.0, ctx.expected_degree());
  const auto switch_round = static_cast<std::uint32_t>(
      std::max(1.0, std::round(std::log(n) / std::log(d))));
  std::vector<double> probs;
  probs.reserve(budget);
  for (std::uint32_t t = 1; t <= std::max(budget, switch_round + 1); ++t) {
    if (t < switch_round)
      probs.push_back(1.0);
    else if (t == switch_round)
      probs.push_back(std::min(
          1.0, n / std::pow(d, static_cast<double>(switch_round))));
    else
      probs.push_back(std::min(1.0, 1.0 / d));
  }
  return probs;
}

LightSession<Graph> run_probe(Protocol& protocol, const ProtocolContext& ctx,
                              const Graph& g, NodeId source, Rng& rng,
                              std::uint32_t max_rounds) {
  RADIO_EXPECTS(max_rounds > 0);
  RADIO_EXPECTS(!protocol.wants_observations());
  protocol.reset(ctx);
  LightSession<Graph> session(g, source);
  std::vector<NodeId> transmitters;
  while (!session.complete() && session.current_round() < max_rounds) {
    transmitters.clear();
    protocol.select_transmitters(session.current_round() + 1, session.view(),
                                 rng, transmitters);
    session.step(transmitters);
  }
  return session;
}

namespace {

std::vector<double> random_sequence(NodeId n, std::uint32_t budget, Rng& rng) {
  // Log-uniform per-round probability in [1/n, 1]: covers aggressive
  // flooding, sparse lotteries and everything between.
  std::vector<double> probs;
  probs.reserve(budget);
  const double lo = std::log(1.0 / static_cast<double>(n));
  for (std::uint32_t t = 0; t < budget; ++t)
    probs.push_back(std::exp(lo * rng.uniform()));
  return probs;
}

}  // namespace

ObliviousSearchOutcome search_oblivious_schedules(
    const Graph& g, NodeId source, const ProtocolContext& ctx,
    const ObliviousSearchParams& params, Rng& rng) {
  RADIO_EXPECTS(params.round_budget > 0);
  RADIO_EXPECTS(params.num_candidates >= 1);
  RADIO_EXPECTS(params.trials_per_candidate >= 1);

  std::vector<std::vector<double>> candidates;
  candidates.reserve(static_cast<std::size_t>(params.num_candidates));
  candidates.push_back(theorem7_oblivious_sequence(ctx, params.round_budget));
  if (params.num_candidates >= 2) {
    const double d = std::max(2.0, ctx.expected_degree());
    candidates.emplace_back(params.round_budget, std::min(1.0, 1.0 / d));
  }
  while (candidates.size() < static_cast<std::size_t>(params.num_candidates))
    candidates.push_back(random_sequence(ctx.n, params.round_budget, rng));

  // Trial t of candidate c draws from for_stream(probe_seed, c·tpc + t), so
  // stopping at a candidate's first incomplete trial shifts no later stream.
  const std::uint64_t probe_seed = rng();
  const auto tpc = static_cast<std::uint64_t>(params.trials_per_candidate);
  ObliviousSearchOutcome outcome;
  outcome.best_rounds = params.round_budget + 1;
  int completed = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    ObliviousSequenceProtocol protocol(std::move(candidates[c]));
    std::uint32_t worst_trial = 0;
    bool all_completed = true;
    for (std::uint64_t trial = 0; trial < tpc && all_completed; ++trial) {
      Rng probe_rng = Rng::for_stream(probe_seed, c * tpc + trial);
      const LightSession<Graph> run = run_probe(
          protocol, ctx, g, source, probe_rng, params.round_budget);
      all_completed = run.complete();
      worst_trial = std::max(worst_trial, run.current_round());
    }
    if (all_completed) {
      ++completed;
      if (worst_trial < outcome.best_rounds) {
        outcome.best_rounds = worst_trial;
        outcome.best_candidate = static_cast<int>(c);
      }
    }
  }
  outcome.completed_fraction =
      static_cast<double>(completed) / static_cast<double>(candidates.size());
  return outcome;
}

std::uint32_t broadcast_diameter_bound(const Graph& g, NodeId source) {
  const LayerDecomposition layers = bfs_layers(g, source);
  return layers.eccentricity();
}

}  // namespace radio
