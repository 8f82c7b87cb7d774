// Distributed protocol interface.
//
// A protocol decides, round by round, which nodes transmit. The interface
// hands the protocol the whole session for convenience, but a *fully
// distributed* protocol (the paper's §3.2 setting) must restrict itself to
// per-node knowledge: the node's own informed status, the round it became
// informed, the global clock, and the public parameters n and p. Protocols
// that peek further (topology, the informed set of other nodes) are
// centralized and say so via `is_distributed()`.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "sim/session.hpp"
#include "sim/session_view.hpp"
#include "util/rng.hpp"

namespace radio {

/// Public parameters every node knows in the distributed model.
struct ProtocolContext {
  NodeId n = 0;      ///< number of nodes
  double p = 0.0;    ///< edge probability (d = p*n)

  double expected_degree() const noexcept { return p * static_cast<double>(n); }
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;

  /// True if the protocol only uses per-node knowledge (see header comment).
  virtual bool is_distributed() const = 0;

  /// Starts a broadcast: called before its round 1, and again before the
  /// next broadcast when one instance serves several. A protocol may keep
  /// per-broadcast state between select calls (DecayProtocol's active set,
  /// ElsasserGasieniecBroadcast's tail list); reset() must clear it.
  virtual void reset(const ProtocolContext& ctx) = 0;

  /// Appends this round's transmitters to `out` (cleared by the caller).
  /// `round` is the 1-based round of the current broadcast: it counts from 1
  /// after each reset(), so a stream slot passes its message's local round.
  /// Between resets every view shows that one broadcast: its informed set
  /// only grows, and a node's informed round never changes. The view is the
  /// per-node knowledge surface; BroadcastSession converts implicitly,
  /// LightSession hands one out per round (the builder, every search probe),
  /// a stream slot (sim/stream) passes its current message's view, the batch
  /// core (sim/batch) builds one per lane per round, and a gossip session's
  /// view shows every node informed.
  virtual void select_transmitters(std::uint32_t round,
                                   const SessionView& session, Rng& rng,
                                   std::vector<NodeId>& out) = 0;

  /// Collision-detection MODEL EXTENSION (off in the paper's model): a
  /// protocol returning true here is fed per-node channel observations after
  /// every round via observe(). The base model's protocols leave both as-is.
  virtual bool wants_observations() const { return false; }
  virtual void observe(std::uint32_t /*round*/,
                       std::span<const ChannelObservation> /*observations*/) {}
};

/// Builds one protocol instance. The argument is the caller's unit index:
/// the trial for run_broadcast_batch (sim/batch), the pipeline slot for the
/// stream session (sim/stream). Parallel trials may call one factory from
/// several threads at once, so it must be safe to call concurrently.
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(int unit)>;

}  // namespace radio
