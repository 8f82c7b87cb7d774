// History-free broadcast state on any GraphBackend: the informed set, each
// node's informed round and the round fold, and nothing else.
//
// BroadcastSession (sim/session.hpp) adds faults, losses, observations and
// per-round statistics on a materialized Graph. LightSession is the mode for
// callers that read none of those: the centralized builder simulating its own
// schedule (core/centralized.hpp), every probe of the schedule searches
// (run_probe, core/lower_bound.hpp) and the streaming session, one per
// in-flight message (sim/stream/stream_session.hpp). All of them only ever
// schedule INFORMED transmitters (asserted per step) on a fault-free channel,
// so
// RadioEngine's delivery rule — a listener receives iff it is uninformed,
// not transmitting, and has exactly one transmitting neighbor — collapses to
//
//     newly = unique & ~informed
//
// over the round fold's read-out. Since nothing else is read, a round may
// also be folded from the listener side (RoundFold::fold_pull): the session
// keeps Σ deg over its uninformed nodes exactly (2m − deg(source), less each
// fresh node's degree), and the kernel's cost model pulls whenever that sum
// is below the transmitters' — the late rounds of a geometrically growing
// informed set. On a Graph the informed evolution is bit-identical to a
// BroadcastSession fed the same transmitter sets; on ImplicitGnp it runs
// without ever materializing an edge list.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "sim/channel_kernel.hpp"
#include "sim/session_view.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

template <GraphBackend G>
class LightSession {
 public:
  /// Starts a broadcast held by `source` at round 0. The graph must outlive
  /// the session.
  LightSession(const G& g, NodeId source)
      : g_(&g),
        informed_(g.num_nodes()),
        informed_round_(g.num_nodes(), kUnreachable),
        fold_(g.num_nodes()) {
    RADIO_EXPECTS(source < g.num_nodes());
    uninformed_degrees_ = 2 * g.num_edges() - g.degree(source);
    informed_.set(source);
    informed_round_[source] = 0;
    informed_count_ = 1;
  }

  /// Executes one round. `transmitters` must be distinct, informed nodes.
  void step(std::span<const NodeId> transmitters) {
    for (NodeId t : transmitters) RADIO_EXPECTS(informed_.test(t));
    fold_.mark_transmitters(transmitters);
    last_path_ = fold_.fold(*g_, transmitters, {}, pull_listeners());
    ++round_;
    const std::span<std::uint64_t> informed_w = informed_.words();
    std::size_t newly = 0;
    fold_.read_out([&](std::size_t base, std::uint64_t, std::uint64_t unique) {
      std::uint64_t& known = informed_w[base / 64];
      const std::uint64_t fresh = andnot(unique, known);
      newly += static_cast<std::size_t>(std::popcount(fresh));
      known |= fresh;
      for_each_set_bit(fresh, base, [&](std::size_t v) {
        informed_round_[v] = round_;
        uninformed_degrees_ -= g_->degree(static_cast<NodeId>(v));
      });
    });
    fold_.clear_transmitters(transmitters);
    informed_count_ += newly;
    last_newly_ = newly;
  }

  /// Counts how many currently uninformed listeners would receive the
  /// message if exactly `sample` (distinct, informed nodes) transmitted,
  /// without changing the session — the builder's look-ahead used to
  /// resample unproductive phase-2 rounds before committing them.
  /// Costs what step() would: the cheapest of the three folds.
  std::size_t preview_new_informed(std::span<const NodeId> sample) {
    fold_.mark_transmitters(sample);
    last_path_ = fold_.fold(*g_, sample, {}, pull_listeners());
    const std::span<const std::uint64_t> informed_w = informed_.words();
    std::size_t newly = 0;
    fold_.read_out([&](std::size_t base, std::uint64_t, std::uint64_t unique) {
      newly += static_cast<std::size_t>(
          std::popcount(andnot(unique, informed_w[base / 64])));
    });
    fold_.clear_transmitters(sample);
    return newly;
  }

  /// The protocol-facing knowledge surface (valid until the next step()).
  /// graph() is available on it only when G is the materialized Graph.
  SessionView view() const noexcept {
    if constexpr (std::is_same_v<G, Graph>)
      return SessionView(*g_, informed_, informed_round_, informed_count_);
    else
      return SessionView(informed_, informed_round_, informed_count_);
  }

  bool informed(NodeId v) const noexcept { return informed_.test(v); }
  std::size_t informed_count() const noexcept { return informed_count_; }
  bool complete() const noexcept {
    return informed_count_ == static_cast<std::size_t>(g_->num_nodes());
  }
  /// Rounds executed so far.
  std::uint32_t current_round() const noexcept { return round_; }
  /// Nodes newly informed by the most recent step().
  std::size_t last_newly() const noexcept { return last_newly_; }
  /// Which fold the most recent step() or preview ran.
  RoundPath last_path() const noexcept { return last_path_; }
  const Bitset& informed_set() const noexcept { return informed_; }

  std::vector<NodeId> informed_nodes() const {
    std::vector<NodeId> out;
    out.reserve(informed_count_);
    informed_.collect(out);
    return out;
  }

  std::vector<NodeId> uninformed_nodes() const {
    std::vector<NodeId> out;
    const NodeId n = g_->num_nodes();
    out.reserve(static_cast<std::size_t>(n) - informed_count_);
    for (NodeId v = 0; v < n; ++v)
      if (!informed_.test(v)) out.push_back(v);
    return out;
  }

 private:
  PullListeners pull_listeners() const noexcept {
    return {&informed_, uninformed_degrees_};
  }

  const G* g_;
  Bitset informed_;
  std::vector<std::uint32_t> informed_round_;
  RoundFold fold_;  ///< scratch shared by step() and preview_new_informed()
  std::size_t informed_count_ = 0;
  std::size_t last_newly_ = 0;
  EdgeCount uninformed_degrees_ = 0;  ///< Σ deg over the uninformed nodes
  std::uint32_t round_ = 0;
  RoundPath last_path_ = RoundPath::kSparse;
};

}  // namespace radio
