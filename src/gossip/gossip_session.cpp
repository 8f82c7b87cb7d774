#include "gossip/gossip_session.hpp"

#include <bit>

#include "util/assert.hpp"

namespace radio {

GossipSession::GossipSession(const Graph& g)
    : graph_(&g),
      counts_(g.num_nodes(), 1),
      total_(g.num_nodes()),
      everyone_(g.num_nodes()),
      informed_round_(g.num_nodes(), 0),
      fold_(g.num_nodes()),
      writers_(g.num_nodes(), kInvalidNode) {
  knowledge_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    knowledge_.emplace_back(g.num_nodes());
    knowledge_.back().set(v);  // own rumor
    everyone_.set(v);
  }
}

double GossipSession::coverage() const noexcept {
  const auto n = static_cast<double>(graph_->num_nodes());
  if (n == 0.0) return 1.0;
  return static_cast<double>(total_) / (n * n);
}

GossipRoundStats GossipSession::step(std::span<const NodeId> transmitters) {
  GossipRoundStats stats;
  stats.round = ++round_;
  stats.transmitters = static_cast<std::uint32_t>(transmitters.size());

  // Senders are transmitters and transmitters never receive, so knowledge
  // merges within a round are order-independent.
  fold_.mark_transmitters(transmitters);
  fold_.fold(*graph_, transmitters, writers_);
  fold_.read_out([&](std::size_t base, std::uint64_t collided,
                     std::uint64_t unique) {
    stats.collisions += static_cast<std::uint32_t>(std::popcount(collided));
    stats.receivers += static_cast<std::uint32_t>(std::popcount(unique));
    for_each_set_bit(unique, base, [&](std::size_t bit) {
      const auto w = static_cast<NodeId>(bit);
      const NodeId sender = fold_.sender(*graph_, w, writers_);
      const std::size_t gained = knowledge_[w].set_union(knowledge_[sender]);
      counts_[w] += gained;
      total_ += gained;
      stats.rumors_moved += gained;
    });
  });
  fold_.clear_transmitters(transmitters);

  stats.knowledge_total = total_;
  return stats;
}

GossipRun run_gossip(Protocol& protocol, const ProtocolContext& ctx,
                     GossipSession& session, Rng& rng,
                     std::uint32_t max_rounds) {
  RADIO_EXPECTS(max_rounds > 0);
  RADIO_EXPECTS(!protocol.wants_observations());
  protocol.reset(ctx);
  GossipRun run;
  std::vector<NodeId> transmitters;
  for (std::uint32_t round = 1; round <= max_rounds; ++round) {
    if (session.complete()) break;
    transmitters.clear();
    protocol.select_transmitters(round, session.view(), rng, transmitters);
    run.transmissions += session.step(transmitters).transmitters;
    ++run.rounds;
  }
  run.completed = session.complete();
  run.coverage = session.coverage();
  return run;
}

}  // namespace radio
