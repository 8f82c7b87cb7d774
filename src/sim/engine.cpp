#include "sim/engine.hpp"

#include <bit>

#include "util/assert.hpp"

namespace radio {

RadioEngine::RadioEngine(const Graph& g)
    : graph_(&g), fold_(g.num_nodes()), writers_(g.num_nodes(), kInvalidNode) {}

void RadioEngine::record_observations(bool enabled) {
  record_observations_ = enabled;
  if (enabled && observations_.size() != graph_->num_nodes())
    observations_.assign(graph_->num_nodes(), ChannelObservation::kSilence);
}

RadioEngine::Outcome RadioEngine::step(std::span<const NodeId> transmitters,
                                       const Bitset& informed,
                                       std::vector<NodeId>& delivered) {
  RADIO_EXPECTS(informed.size() == graph_->num_nodes());

  // Reset last round's observations before computing this round's (only the
  // entries that were written — never O(n)).
  if (record_observations_) {
    for (NodeId v : observed_) observations_[v] = ChannelObservation::kSilence;
    observed_.clear();
  }

  fold_.mark_transmitters(transmitters);
  bool all_informed = true;
  for (NodeId t : transmitters) all_informed &= informed.test(t);
  // Senders are looked up only when some transmitter is uninformed, so only
  // such rounds pay for recording the list fold's writers.
  const std::span<NodeId> writers =
      all_informed ? std::span<NodeId>{} : std::span<NodeId>{writers_};

  switch (path_mode_) {
    case PathMode::kAuto:
      last_path_ = fold_.fold(*graph_, transmitters, writers);
      break;
    case PathMode::kForceSparse:
      fold_.fold_lists(*graph_, transmitters, writers);
      last_path_ = RoundPath::kSparse;
      break;
    case PathMode::kForceDense:
      fold_.fold_rows(*graph_, transmitters);
      last_path_ = RoundPath::kDense;
      break;
  }

  Outcome outcome;
  const std::span<const std::uint64_t> known = informed.words();
  fold_.read_out([&](std::size_t base, std::uint64_t collided,
                     std::uint64_t unique) {
    outcome.collisions += static_cast<std::uint32_t>(std::popcount(collided));
    if (record_observations_) {
      for_each_set_bit(collided, base, [&](std::size_t w) {
        observe(static_cast<NodeId>(w), ChannelObservation::kCollision);
      });
      for_each_set_bit(unique, base, [&](std::size_t w) {
        observe(static_cast<NodeId>(w), ChannelObservation::kMessage);
      });
    }
    // A reception carries the message only if its sender holds it; an
    // uninformed transmitter still jams (or is heard as noise).
    std::uint64_t carried = unique;
    if (!all_informed)
      for_each_set_bit(unique, base, [&](std::size_t w) {
        const NodeId sender =
            fold_.sender(*graph_, static_cast<NodeId>(w), writers_);
        if (!informed.test(sender))
          carried &= ~(std::uint64_t{1} << (w - base));
      });
    const std::uint64_t already = known[base / 64];
    outcome.redundant +=
        static_cast<std::uint32_t>(std::popcount(carried & already));
    for_each_set_bit(andnot(carried, already), base, [&](std::size_t w) {
      delivered.push_back(static_cast<NodeId>(w));
    });
  });

  if (record_observations_)
    for (NodeId t : transmitters) observe(t, ChannelObservation::kTransmitting);

  fold_.clear_transmitters(transmitters);
  return outcome;
}

}  // namespace radio
