// Radio GOSSIPING — the all-to-all problem the paper's conclusions point to
// as the natural next question after broadcasting.
//
// Every node v starts with its own rumor (rumor id == originator id). The
// channel semantics are the paper's, unchanged: per round each node
// transmits or listens; a listener receives iff exactly one neighbor
// transmits. A successful reception transfers the transmitter's ENTIRE
// current rumor set (radio packets are size-unbounded in this model, as in
// the broadcast case where the single message also rides one transmission).
// Gossip completes when every node knows all n rumors.
//
// Gossip schedulers are ordinary broadcast Protocols (sim/protocol.hpp):
// view() shows every node informed at round 0, since each holds its own
// rumor, so a broadcast rule there decides only how nodes share the
// channel. E12 runs three: UniformGossipProtocol (every node transmits with
// probability 1/d each round), RoundRobinProtocol (node (t-1) mod n alone,
// collision-free, Θ(n·D) rounds) and DecayProtocol (BGI phases in which
// everyone starts active and halves its persistence).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel_kernel.hpp"
#include "sim/protocol.hpp"
#include "sim/session_view.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace radio {

struct GossipRoundStats {
  std::uint32_t round = 0;
  std::uint32_t transmitters = 0;
  std::uint32_t receivers = 0;        ///< listeners with a unique transmitter
  std::uint32_t collisions = 0;
  std::uint64_t rumors_moved = 0;     ///< newly learned (node, rumor) pairs
  std::uint64_t knowledge_total = 0;  ///< Σ_v |known(v)| after the round
};

class GossipSession {
 public:
  explicit GossipSession(const Graph& g);

  const Graph& graph() const noexcept { return *graph_; }

  bool knows(NodeId node, NodeId rumor) const noexcept {
    return knowledge_[node].test(rumor);
  }

  /// Number of rumors node currently holds (>= 1: its own).
  std::size_t knowledge_count(NodeId node) const noexcept {
    return counts_[node];
  }

  /// Σ_v |known(v)|; completion is n².
  std::uint64_t total_knowledge() const noexcept { return total_; }

  bool complete() const noexcept {
    const auto n = static_cast<std::uint64_t>(graph_->num_nodes());
    return total_ == n * n;
  }

  /// Fraction of all (node, rumor) pairs delivered, in [1/n, 1].
  double coverage() const noexcept;

  std::uint32_t current_round() const noexcept { return round_; }

  /// The knowledge surface a Protocol selects from: every node informed at
  /// round 0.
  SessionView view() const noexcept {
    return SessionView(*graph_, everyone_, informed_round_,
                       graph_->num_nodes());
  }

  /// Executes one round. Transmitter ids must be distinct.
  GossipRoundStats step(std::span<const NodeId> transmitters);

 private:
  const Graph* graph_;
  std::vector<Bitset> knowledge_;     ///< per node: rumor set
  std::vector<std::size_t> counts_;   ///< per node: |rumor set|
  std::uint64_t total_ = 0;
  std::uint32_t round_ = 0;
  Bitset everyone_;                             ///< view(): all set
  std::vector<std::uint32_t> informed_round_;   ///< view(): all 0
  // The shared round fold (sim/channel_kernel.hpp); its cost model picks
  // the list or bitmap-row fold per round, and both are exact.
  RoundFold fold_;
  std::vector<NodeId> writers_;  ///< fold_lists' last writer per node
};

struct GossipRun {
  bool completed = false;
  std::uint32_t rounds = 0;
  std::uint64_t transmissions = 0;
  double coverage = 0.0;  ///< fraction of (node, rumor) pairs delivered
};

/// Runs `protocol` on `session.view()` until all-to-all completion or the
/// budget. The protocol must not want channel observations.
GossipRun run_gossip(Protocol& protocol, const ProtocolContext& ctx,
                     GossipSession& session, Rng& rng,
                     std::uint32_t max_rounds);

}  // namespace radio
