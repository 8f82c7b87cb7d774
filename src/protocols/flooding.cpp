#include "protocols/flooding.hpp"

namespace radio {

void FloodingProtocol::select_transmitters(std::uint32_t,
                                           const SessionView& session,
                                           Rng&, std::vector<NodeId>& out) {
  for (NodeId v = 0; v < session.num_nodes(); ++v)
    if (session.informed(v)) out.push_back(v);
}

}  // namespace radio
