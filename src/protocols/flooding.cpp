#include "protocols/flooding.hpp"

namespace radio {

void FloodingProtocol::select_transmitters(std::uint32_t,
                                           const SessionView& session,
                                           Rng&, std::vector<NodeId>& out) {
  session.informed_set().collect(out);
}

}  // namespace radio
