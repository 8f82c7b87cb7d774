#include "protocols/decay.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

void DecayProtocol::reset(const ProtocolContext& ctx) {
  RADIO_EXPECTS(ctx.n >= 2);
  phase_length_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(ctx.n)))));
  nodes_ = ctx.n;
  active_.clear();
}

void DecayProtocol::select_transmitters(std::uint32_t round,
                                        const SessionView& session,
                                        Rng& rng, std::vector<NodeId>& out) {
  RADIO_EXPECTS(nodes_ == session.num_nodes());
  const bool phase_start = (round - 1) % phase_length_ == 0;
  if (phase_start) {
    // Informed nodes become active, in ascending id order (the same order
    // the per-node scan visited them, preserving the draw sequence).
    active_.clear();
    session.informed_set().collect(active_);
  }
  // Every active node transmits, then survives into the next round of the
  // phase with probability 1/2; the in-place compaction keeps ids ascending.
  // It stores every node and advances on survival, so the fair coin is
  // never a branch.
  out.insert(out.end(), active_.begin(), active_.end());
  std::size_t kept = 0;
  for (const NodeId v : active_) {
    active_[kept] = v;
    kept += rng.bernoulli(0.5) ? 1 : 0;
  }
  active_.resize(kept);
}

}  // namespace radio
