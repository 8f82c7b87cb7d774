// Session trace rendering: turns a session's round history into a table for
// examples and debugging (informed curve, collision profile).
#pragma once

#include "sim/session.hpp"
#include "util/table.hpp"

namespace radio {

/// Compact single-line summary, e.g. for example binaries:
/// "completed in 17 rounds, 12 collisions, 1024/1024 informed".
std::string trace_summary(const BroadcastSession& session);

}  // namespace radio
