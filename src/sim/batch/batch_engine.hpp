// Instance-parallel radio channel: up to 64 broadcast instances ("lanes")
// on ONE shared graph, advanced together by word-parallel sweeps.
//
// Layout. State is lane-sliced SoA: for every node v the engine keeps one
// 64-bit lane word per plane (informed / transmitting / hit-once /
// hit-twice), node-indexed. Bit l of node v's word says what lane l's
// instance knows about v. One pass over the shared adjacency therefore
// advances ALL lanes: folding transmitter u's neighbor w costs one word op
// and serves every lane in which u transmits — the per-round work is Σ over
// the UNION of the lanes' transmitter sets, not the sum, which is where the
// batch speedup comes from (protocols with overlapping transmitter sets,
// e.g. flood-like phases, amortize best).
//
// Semantics per lane are EXACTLY RadioEngine's (sim/engine.hpp): a listener
// receives iff precisely one neighbor transmits, ≥ 2 jam, transmitters never
// receive, and an uninformed unique transmitter still jams delivery of
// nothing. The differential suite (tests/sim/test_batch_engine.cpp,
// tests/property/test_batch_equivalence.cpp) pins round-by-round equality
// against RadioEngine for every lane.
//
// In-round mutation safety: informed bits are set the moment a delivery is
// classified. This cannot race with the unique-sender resolution of another
// listener because a transmitter can never receive in its own lane — the
// informed bits read during resolution are masked to lanes where the scanned
// node transmits, and those bits are frozen for the round.
//
// The engine knows nothing about protocols, RNG streams or trial queues;
// run_broadcast_batch (batch_runner.hpp) owns those. No wall clock, no
// iostream: this file is part of the simulation kernel (radio-lint enforces
// both).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/session_view.hpp"
#include "util/bitset.hpp"

namespace radio {

/// Lanes one engine holds: one 64-bit lane word per node and plane.
inline constexpr std::uint32_t kMaxBatchLanes = 64;

class BatchEngine {
 public:
  /// What one lane experienced in the round just stepped.
  struct LaneOutcome {
    std::uint32_t transmitters = 0;    ///< nodes that transmitted in the lane
    std::uint32_t newly_informed = 0;  ///< uninformed listeners that received
    std::uint32_t collisions = 0;      ///< listeners with >= 2 tx neighbors
    std::uint32_t redundant = 0;       ///< informed listeners that heard again
  };

  /// `lanes` in [1, kMaxBatchLanes]; the graph must outlive the engine.
  BatchEngine(const Graph& g, std::uint32_t lanes);

  const Graph& graph() const noexcept { return *graph_; }
  std::uint32_t lane_count() const noexcept { return lane_count_; }

  /// (Re)initializes a lane: informed = {source} at round 0. Clears any
  /// previous instance state the lane held.
  void open_lane(std::uint32_t lane, NodeId source);

  /// Rounds stepped since the lane was opened.
  std::uint32_t round(std::uint32_t lane) const noexcept {
    return round_[lane];
  }

  bool informed(std::uint32_t lane, NodeId v) const noexcept {
    return informed_mirror_[lane].test(v);
  }
  std::size_t informed_count(std::uint32_t lane) const noexcept {
    return informed_count_[lane];
  }
  bool complete(std::uint32_t lane) const noexcept {
    return informed_count_[lane] == graph_->num_nodes();
  }

  /// The protocol-facing knowledge surface of one lane (valid until the next
  /// step()/open_lane() on that lane).
  SessionView view(std::uint32_t lane) const noexcept {
    return SessionView(*graph_, informed_mirror_[lane], informed_round_[lane],
                       informed_count_[lane]);
  }

  /// Registers every node of `vs` as a transmitter of `lane` for the
  /// upcoming step(). Duplicate (lane, v) pairs are caller bugs, as in
  /// RadioEngine. One lane-mask/mirror setup amortized over the whole set —
  /// the trial loop feeds each lane's per-round transmitter list through
  /// this.
  void add_transmitters(std::uint32_t lane, std::span<const NodeId> vs);

  /// Executes one synchronous round for every lane in `active` (ascending
  /// lane ids, each open): increments their round counters, applies
  /// deliveries, and fills outcome(). Lanes outside `active` must not have
  /// registered transmitters.
  void step(std::span<const std::uint32_t> active);

  /// Valid for lanes passed to the most recent step().
  const LaneOutcome& outcome(std::uint32_t lane) const noexcept {
    return outcome_[lane];
  }

 private:
  const Graph* graph_;
  std::uint32_t lane_count_;

  // Lane words, node-indexed. once_/twice_/tx_ are all-zero between rounds
  // (reset via the round's node lists, never O(n)).
  std::vector<std::uint64_t> informed_p_;
  std::vector<std::uint64_t> once_;
  std::vector<std::uint64_t> twice_;
  std::vector<std::uint64_t> tx_;

  // Per-lane untransposed mirrors backing SessionView: protocols read
  // informed(v)/informed_round(v) per lane, which the transposed planes
  // cannot serve without bit gathers.
  std::vector<Bitset> informed_mirror_;
  std::vector<std::vector<std::uint32_t>> informed_round_;
  std::vector<std::size_t> informed_count_;
  std::vector<std::uint32_t> round_;
  std::vector<LaneOutcome> outcome_;

  // Round scratch.
  /// This round's transmitters in first-registration order: v is listed
  /// iff tx_[v] != 0.
  std::vector<NodeId> tx_nodes_;
  std::vector<std::uint32_t> tx_count_;  ///< per lane
  /// Bit l set while every transmitter registered by lane l is informed —
  /// then a unique sender in lane l delivers without resolving WHO sent.
  std::uint64_t all_tx_informed_ = ~std::uint64_t{0};
  /// Listeners hit this round in first-touch order: w is listed iff
  /// once_[w] != 0.
  std::vector<NodeId> touched_;
};

}  // namespace radio
