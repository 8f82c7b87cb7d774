#include "protocols/round_robin.hpp"

#include "util/assert.hpp"

namespace radio {

void RoundRobinProtocol::select_transmitters(std::uint32_t round,
                                             const SessionView& session,
                                             Rng&, std::vector<NodeId>& out) {
  RADIO_EXPECTS(n_ == session.num_nodes());
  const NodeId v = static_cast<NodeId>((round - 1) % n_);
  if (session.informed(v)) out.push_back(v);
}

}  // namespace radio
