// Broadcast session state: which nodes are informed, when each learned the
// message, and per-round statistics. One session == one broadcast attempt on
// one graph instance from one source.
//
// Optional extras (both off by default, costing nothing when unused):
//   * fault injection (sim/faults.hpp): crashed nodes are silently dropped
//     from every transmitter set and can never receive; lossy links drop
//     deliveries at the configured rate; completion means "all SURVIVING
//     nodes informed";
//   * channel observations: per-node silence/message/collision feedback for
//     the collision-detection model extension.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/round_stats.hpp"
#include "util/bitset.hpp"

namespace radio {

class BroadcastSession {
 public:
  /// Starts a broadcast of one message held by `source` at round 0.
  /// The session keeps a reference to `g`: the graph must outlive it
  /// (do not pass a temporary).
  BroadcastSession(const Graph& g, NodeId source);

  /// Fault-injected session. The source must not be crashed.
  BroadcastSession(const Graph& g, NodeId source, SessionFaults faults);

  /// Multi-source session: the SAME message is injected at several nodes at
  /// round 0 (k emergency sirens announcing one alert). `sources` must be
  /// non-empty, distinct, and free of crashed nodes; source() reports the
  /// first one.
  BroadcastSession(const Graph& g, std::span<const NodeId> sources,
                   SessionFaults faults = {});

  const Graph& graph() const noexcept { return engine_.graph(); }
  NodeId source() const noexcept { return source_; }

  bool informed(NodeId v) const noexcept { return informed_.test(v); }

  /// Round in which v became informed; kUnreachable if still uninformed.
  /// The source is informed at round 0.
  std::uint32_t informed_round(NodeId v) const noexcept {
    return informed_round_[v];
  }

  /// The whole informed-round array (SessionView's backing span).
  std::span<const std::uint32_t> informed_rounds() const noexcept {
    return informed_round_;
  }

  std::size_t informed_count() const noexcept { return informed_count_; }

  /// Number of nodes that can still participate (n minus crashes).
  std::size_t alive_count() const noexcept { return alive_count_; }

  bool crashed(NodeId v) const noexcept {
    return faults_.crashed.size() > 0 && faults_.crashed.test(v);
  }

  /// Complete == every surviving node informed.
  bool complete() const noexcept { return informed_count_ == alive_count_; }

  /// Rounds executed so far.
  std::uint32_t current_round() const noexcept {
    return static_cast<std::uint32_t>(history_.size());
  }

  /// Enables per-node channel observations (collision-detection extension).
  void enable_observations() { engine_.record_observations(true); }

  /// Pins the engine's execution path (tests/benches only). Both paths are
  /// exact — see the determinism contract in sim/engine.hpp.
  void force_path(RoundPath path) noexcept { engine_.force_path(path); }

  /// Valid after a step() when observations are enabled.
  std::span<const ChannelObservation> last_observations() const noexcept {
    return engine_.last_observations();
  }

  /// Executes one round with the given transmitter set and records stats.
  /// Crashed transmitters are dropped silently (their radio is off).
  const RoundStats& step(std::span<const NodeId> transmitters);

  /// All informed node ids, ascending.
  std::vector<NodeId> informed_nodes() const;

  /// All surviving uninformed node ids, ascending.
  std::vector<NodeId> uninformed_nodes() const;

  const Bitset& informed_set() const noexcept { return informed_; }
  const std::vector<RoundStats>& history() const noexcept { return history_; }

  /// Total collision events over the whole session.
  std::uint64_t total_collisions() const noexcept;

  /// Deliveries dropped by the loss fault model so far.
  std::uint64_t lost_deliveries() const noexcept { return lost_deliveries_; }

 private:
  RadioEngine engine_;
  NodeId source_;
  SessionFaults faults_;
  Rng loss_rng_;
  Bitset informed_;
  std::vector<std::uint32_t> informed_round_;
  std::size_t informed_count_ = 0;
  std::size_t alive_count_ = 0;
  std::uint64_t lost_deliveries_ = 0;
  std::vector<RoundStats> history_;
  std::vector<NodeId> delivery_buffer_;
  std::vector<NodeId> filtered_transmitters_;
};

}  // namespace radio
