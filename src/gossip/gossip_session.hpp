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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel_kernel.hpp"
#include "util/bitset.hpp"

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

  std::uint32_t current_round() const noexcept {
    return static_cast<std::uint32_t>(history_.size());
  }

  /// Executes one round. Transmitter ids must be distinct.
  const GossipRoundStats& step(std::span<const NodeId> transmitters);

  const std::vector<GossipRoundStats>& history() const noexcept {
    return history_;
  }

 private:
  const Graph* graph_;
  std::vector<Bitset> knowledge_;     ///< per node: rumor set
  std::vector<std::size_t> counts_;   ///< per node: |rumor set|
  std::uint64_t total_ = 0;
  std::vector<GossipRoundStats> history_;
  // The shared round fold (sim/channel_kernel.hpp); its cost model picks
  // the list or bitmap-row fold per round, and both are exact.
  RoundFold fold_;
  std::vector<NodeId> writers_;  ///< fold_lists' last writer per node
};

}  // namespace radio
