// Fault models for robustness experiments (E11).
//
// Two orthogonal fault classes:
//   * CRASH faults: a node's radio is off for the whole session — it never
//     transmits, never jams, never receives, and does not count toward
//     completion. Crash faults model destroyed/depleted devices and are what
//     breaks a precomputed Theorem-5 schedule (its transmitter sets silently
//     lose members) while the Theorem-7 protocol keeps adapting.
//   * LOSS faults: each otherwise-successful reception is independently
//     dropped with probability `loss` (fading, interference bursts). Loss
//     slows every protocol by a 1/(1-loss) factor but breaks none.
#pragma once

#include <cstdint>

#include "graph/types.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace radio {

struct SessionFaults {
  Bitset crashed;          ///< empty, or one bit per node
  double loss = 0.0;       ///< per-delivery drop probability in [0, 1)
  std::uint64_t seed = 0;  ///< randomness for loss draws

  bool any() const noexcept { return crashed.size() > 0 || loss > 0.0; }
};

/// Crashes ~`fraction` of the nodes uniformly at random, never the protected
/// node (usually the broadcast source). Requires fraction in [0, 1).
SessionFaults make_crash_faults(NodeId n, double fraction, NodeId protect,
                                Rng& rng);

}  // namespace radio
