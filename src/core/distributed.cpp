#include "core/distributed.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace radio {

std::string ElsasserGasieniecBroadcast::name() const {
  return options_.tail_includes_late_informed
             ? "elsasser-gasieniec[all-informed-tail]"
             : "elsasser-gasieniec";
}

void ElsasserGasieniecBroadcast::reset(const ProtocolContext& ctx) {
  RADIO_EXPECTS(ctx.n >= 2);
  RADIO_EXPECTS(ctx.p > 0.0 && ctx.p <= 1.0);
  ctx_ = ctx;
  const double n = static_cast<double>(ctx.n);
  const double d = ctx.expected_degree();
  RADIO_EXPECTS(d > 1.0);

  // D = ln n / ln d, rounded to the nearest round, at least 1.
  const double ratio = std::log(n) / std::log(d);
  switch_round_ = static_cast<std::uint32_t>(std::max(1.0, std::round(ratio)));

  // n / d^D, clamped into (0, 1]: with D ≈ log_d n this is about n/d when D
  // overshoots by one layer, and 1 when d^D ≈ n.
  const double kick = n / std::pow(d, static_cast<double>(switch_round_));
  kickoff_probability_ = std::min(1.0, std::max(kick, 1.0 / n));

  tail_probability_ = std::min(1.0, options_.selective_rate_scale / d);
  tail_frozen_ = false;
}

double ElsasserGasieniecBroadcast::transmit_probability(
    std::uint32_t round) const noexcept {
  if (round < switch_round_) return 1.0;
  if (round == switch_round_) return kickoff_probability_;
  return tail_probability_;
}

void ElsasserGasieniecBroadcast::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  const double q = transmit_probability(round);
  const auto transmit = [&](std::size_t v) {
    out.push_back(static_cast<NodeId>(v));
  };
  if (round <= switch_round_ || options_.tail_includes_late_informed) {
    session.informed_set().for_each_sampled(q, rng, transmit);
    return;
  }
  // The paper's tail: only nodes informed by the end of round D transmit.
  if (!tail_frozen_) {
    tail_ = session.informed_set();
    session.informed_set().for_each_set([&](std::size_t v) {
      if (session.informed_round(static_cast<NodeId>(v)) > switch_round_)
        tail_.reset(v);
    });
    tail_frozen_ = true;
  }
  tail_.for_each_sampled(q, rng, transmit);
}

}  // namespace radio
