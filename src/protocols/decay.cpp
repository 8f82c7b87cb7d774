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
    const std::span<const std::uint64_t> words = session.informed_set().words();
    for (std::size_t wi = 0; wi < words.size(); ++wi)
      for_each_set_bit(words[wi], wi * 64, [&](std::size_t v) {
        active_.push_back(static_cast<NodeId>(v));
      });
  }
  // Every active node transmits, then survives into the next round of the
  // phase with probability 1/2; the in-place compaction keeps ids ascending.
  std::size_t kept = 0;
  for (const NodeId v : active_) {
    out.push_back(v);
    if (rng.bernoulli(0.5)) active_[kept++] = v;
  }
  active_.resize(kept);
}

}  // namespace radio
