// Read-only view of one broadcast's per-node knowledge state — the exact
// surface a Protocol may consult when selecting transmitters.
//
// Protocols used to take `const BroadcastSession&`; narrowing the parameter
// to this view is what lets every session shape drive the SAME protocol
// implementations: LightSession (the centralized builder, every search
// probe, each stream message) and the batched core's lanes (sim/batch) hand
// out views without a full BroadcastSession behind them. The view is a fat
// pointer (graph + informed set + informed-round array), cheap to construct
// per round; BroadcastSession converts implicitly so existing call sites
// compile unchanged.
//
// Protocols read the node count through num_nodes(). graph() exists only on
// views of sessions over a materialized Graph; LightSession on another
// GraphBackend (sim/light_session.hpp) hands out views without one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

class BroadcastSession;

class SessionView {
 public:
  /// A view without a topology: n is the size of the informed set.
  SessionView(const Bitset& informed,
              std::span<const std::uint32_t> informed_round,
              std::size_t informed_count) noexcept
      : informed_(&informed),
        informed_round_(informed_round),
        informed_count_(informed_count) {}

  SessionView(const Graph& g, const Bitset& informed,
              std::span<const std::uint32_t> informed_round,
              std::size_t informed_count) noexcept
      : SessionView(informed, informed_round, informed_count) {
    graph_ = &g;
  }

  /// Implicit on purpose: run_protocol and the tests hand sessions straight
  /// to Protocol::select_transmitters. Defined in session.cpp.
  SessionView(const BroadcastSession& session) noexcept;  // NOLINT(runtime/explicit)

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(informed_->size());
  }

  /// The materialized topology; only views built from a Graph have one.
  const Graph& graph() const noexcept {
    RADIO_EXPECTS(graph_ != nullptr);
    return *graph_;
  }

  bool informed(NodeId v) const noexcept { return informed_->test(v); }

  /// Round in which v became informed; kUnreachable if still uninformed.
  /// The source is informed at round 0.
  std::uint32_t informed_round(NodeId v) const noexcept {
    return informed_round_[v];
  }

  std::size_t informed_count() const noexcept { return informed_count_; }

  const Bitset& informed_set() const noexcept { return *informed_; }

 private:
  const Graph* graph_ = nullptr;
  const Bitset* informed_;
  std::span<const std::uint32_t> informed_round_;
  std::size_t informed_count_;
};

}  // namespace radio
