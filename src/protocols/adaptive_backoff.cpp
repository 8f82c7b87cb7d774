#include "protocols/adaptive_backoff.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace radio {

void AdaptiveBackoffProtocol::reset(const ProtocolContext& ctx) {
  RADIO_EXPECTS(ctx.n >= 2);
  RADIO_EXPECTS(options_.initial_probability > 0.0 &&
                options_.initial_probability <= 1.0);
  RADIO_EXPECTS(options_.collision_factor > 0.0 &&
                options_.collision_factor < 1.0);
  RADIO_EXPECTS(options_.silence_factor > 1.0);
  RADIO_EXPECTS(options_.max_probability > 0.0 &&
                options_.max_probability < 1.0);
  q_.assign(ctx.n,
            std::min(options_.initial_probability, options_.max_probability));
  // The floor only needs n (degrees are at most n-1), not p.
  floor_ = 1.0 / static_cast<double>(ctx.n);
  gate_cycle_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(ctx.n)))));
}

double AdaptiveBackoffProtocol::gate(std::uint32_t round) const noexcept {
  if (!options_.use_decay_gate) return 1.0;
  const std::uint32_t j = (round - 1) % gate_cycle_;
  return std::pow(0.5, static_cast<double>(j));
}

void AdaptiveBackoffProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  RADIO_EXPECTS(q_.size() == session.num_nodes());
  const double g = gate(round);
  session.informed_set().for_each_set([&](std::size_t v) {
    if (rng.bernoulli(q_[v] * g)) out.push_back(static_cast<NodeId>(v));
  });
}

void AdaptiveBackoffProtocol::observe(
    std::uint32_t round, std::span<const ChannelObservation> observations) {
  RADIO_EXPECTS(observations.size() == q_.size());
  // Gated rounds carry deliberately thinned traffic; learning from them
  // would read the thinning as "channel idle" and inflate every rate.
  if (gate(round) < 1.0) return;
  for (std::size_t v = 0; v < observations.size(); ++v) {
    switch (observations[v]) {
      case ChannelObservation::kCollision:
        q_[v] = std::max(floor_, q_[v] * options_.collision_factor);
        break;
      case ChannelObservation::kSilence:
        q_[v] = std::min(options_.max_probability,
                         q_[v] * options_.silence_factor);
        break;
      case ChannelObservation::kMessage:
      case ChannelObservation::kTransmitting:
        break;  // clean channel or busy: keep the current rate
    }
  }
}

}  // namespace radio
