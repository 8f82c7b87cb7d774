#include "sim/trace.hpp"

#include <sstream>

namespace radio {

std::string trace_summary(const BroadcastSession& session) {
  std::ostringstream out;
  if (session.complete()) {
    out << "completed in " << session.current_round() << " rounds";
  } else {
    out << "incomplete after " << session.current_round() << " rounds";
  }
  out << ", " << session.total_collisions() << " collision events, "
      << session.informed_count() << "/" << session.graph().num_nodes()
      << " informed";
  return out.str();
}

}  // namespace radio
