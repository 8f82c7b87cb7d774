#include "protocols/uniform_gossip.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace radio {

void UniformGossipProtocol::reset(const ProtocolContext& ctx) {
  if (configured_q_ > 0.0) {
    q_ = std::min(1.0, configured_q_);
  } else {
    const double d = ctx.expected_degree();
    RADIO_EXPECTS(d > 0.0);
    q_ = std::min(1.0, 1.0 / d);
  }
}

void UniformGossipProtocol::select_transmitters(
    std::uint32_t, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  session.informed_set().for_each_sampled(q_, rng, [&](std::size_t v) {
    out.push_back(static_cast<NodeId>(v));
  });
}

}  // namespace radio
