#include "sim/faults.hpp"

#include "util/assert.hpp"

namespace radio {

SessionFaults make_crash_faults(NodeId n, double fraction, NodeId protect,
                                Rng& rng) {
  RADIO_EXPECTS(fraction >= 0.0 && fraction < 1.0);
  RADIO_EXPECTS(protect < n);
  SessionFaults faults;
  faults.crashed = Bitset(n);
  for (NodeId v = 0; v < n; ++v)
    if (v != protect && rng.bernoulli(fraction)) faults.crashed.set(v);
  return faults;
}

}  // namespace radio
