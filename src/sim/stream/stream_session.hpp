// Sustained-traffic simulation: a radio network serving a Poisson stream of
// broadcast messages through a pipeline of ordinary broadcasts.
//
// One StreamSession == one long-lived service run on one graph instance, on
// any GraphBackend: E16/E17 stream on a materialized Graph, E18 on the
// on-demand ImplicitGnp sampler at n where no edge list could exist.
// Wall rounds are time-divided into kPipelineDepth interleaved slots, slot s
// owning every round r with (r - 1) % kPipelineDepth == s. Each slot carries
// at most one in-flight message and runs its own Protocol instance, built
// from the caller's ProtocolFactory with the slot index. Per wall round
// r = 1 … horizon:
//
//   1. arrivals — PoissonArrivals draws k ~ Poisson(rate) new messages,
//      each at a uniform origin node, enqueued FIFO;
//   2. dispatch — the round's owning slot adopts the oldest waiting message
//      if it is idle: a fresh LightSession from the message's origin, and
//      the slot's protocol is reset;
//   3. service — slot s advances its message by ONE local round: its
//      protocol selects transmitters for local round 1, 2, … of that
//      message, and the round fold executes them (exact reception rule,
//      sim/light_session.hpp);
//   4. retire — if the message's broadcast completed (every node informed),
//      its latency (completion - arrival, queueing included) is recorded and
//      the slot goes idle.
//
// Only the owning slot transmits in a round, so messages in different slots
// never collide with each other, by construction: the parity phases of the
// paper's Theorem 5 (even/odd rounds share the channel) applied to
// messages (DESIGN.md §9). A message whose broadcast cannot
// complete (e.g. flooding wedged by collisions) occupies its slot forever —
// that shows up honestly as queue growth, which is exactly what E16's
// stability sweep measures. Collisions themselves are not counted: the
// per-message state is the history-free LightSession, and no channel
// observations are fed back, so a protocol that wants them is refused.
//
// Determinism contract: all randomness comes from two session-owned
// generators derived via Rng::for_stream(seed, tag | stream) — one for
// arrivals, one for protocol coin flips, with disjoint tag bits so neither
// stream can collide with a plain trial stream. A StreamSession is a pure
// function of (graph, context, protocols, config): results are byte-identical
// across thread counts and graph backends holding the same edges; pinned by
// tests/analysis/test_stream_determinism.cpp and
// tests/analysis/test_stream_workload.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/backend.hpp"
#include "sim/light_session.hpp"
#include "sim/protocol.hpp"
#include "sim/stream/message_queue.hpp"
#include "util/assert.hpp"
#include "util/stream_tags.hpp"

namespace radio {

/// The session's two sub-stream tag bits live in the central registry
/// (util/stream_tags.hpp, compile-checked against every other tag in the
/// tree); re-exported here because the session is their primary consumer.
using stream_tags::kArrivalStreamTag;
using stream_tags::kProtocolStreamTag;

/// Interleaved pipeline slots: at most this many messages are in flight.
inline constexpr std::uint32_t kPipelineDepth = 2;

struct StreamConfig {
  double rate = 0.25;         ///< λ: expected message arrivals per round
  std::uint32_t horizon = 2000;  ///< wall rounds to simulate
  std::uint64_t seed = 42;
  std::uint64_t stream = 0;   ///< trial stream index (one session per trial)
  /// Queue-depth trajectory resolution: about this many evenly spaced
  /// samples over the horizon (at least 1; the final round is always
  /// sampled).
  std::uint32_t trajectory_samples = 8;
};

/// One (round, queue state) trajectory sample.
struct QueueSample {
  std::uint32_t round = 0;
  std::uint64_t waiting = 0;
  std::uint32_t in_flight = 0;
};

struct StreamMetrics {
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t waiting_at_horizon = 0;
  std::uint64_t waiting_mid = 0;   ///< queue depth after round horizon/2
  std::uint64_t max_waiting = 0;
  std::uint32_t in_flight_at_horizon = 0;
  std::uint32_t rounds = 0;        ///< == config.horizon
  std::uint64_t transmissions = 0;
  /// completion - arrival per delivered message, in delivery order.
  std::vector<std::uint32_t> latencies;
  std::vector<QueueSample> trajectory;

  /// Achieved throughput in messages per round.
  double throughput() const noexcept {
    return rounds == 0 ? 0.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(rounds);
  }
};

template <GraphBackend G>
class StreamSession {
 public:
  /// The graph must outlive the session. `ctx.n` must equal
  /// `g.num_nodes()`. `make_protocol(s)` builds slot s's protocol, once per
  /// slot; it must not want channel observations.
  StreamSession(const G& g, const ProtocolContext& ctx,
                const ProtocolFactory& make_protocol,
                const StreamConfig& config)
      : g_(&g), ctx_(ctx), config_(config) {
    RADIO_EXPECTS(ctx.n == g.num_nodes());
    RADIO_EXPECTS(ctx.n >= 2);
    RADIO_EXPECTS(config.rate >= 0.0);
    RADIO_EXPECTS(config.horizon >= 1);
    for (std::uint32_t s = 0; s < kPipelineDepth; ++s) {
      slots_[s].protocol = make_protocol(static_cast<int>(s));
      RADIO_EXPECTS(slots_[s].protocol != nullptr);
      RADIO_EXPECTS(!slots_[s].protocol->wants_observations());
    }
  }

  /// Runs the full horizon. Single-use: a second call asserts.
  StreamMetrics run() {
    RADIO_EXPECTS(!ran_);
    ran_ = true;

    PoissonArrivals arrivals(
        config_.rate, ctx_.n,
        Rng::for_stream(config_.seed, kArrivalStreamTag | config_.stream));
    Rng protocol_rng =
        Rng::for_stream(config_.seed, kProtocolStreamTag | config_.stream);

    StreamMetrics metrics;
    metrics.rounds = config_.horizon;
    const std::uint32_t mid = config_.horizon / 2;
    const std::uint32_t stride = std::max<std::uint32_t>(
        1, config_.horizon /
               std::max<std::uint32_t>(1, config_.trajectory_samples));

    std::vector<NodeId> origins;
    std::vector<NodeId> transmitters;
    for (std::uint32_t r = 1; r <= config_.horizon; ++r) {
      // 1. Arrivals.
      origins.clear();
      arrivals.draw(origins);
      for (const NodeId origin : origins) queue_.enqueue(origin, r);

      // 2. Dispatch into the round's owning slot.
      Slot& slot = slots_[(r - 1) % kPipelineDepth];
      if (!slot.session && queue_.has_waiting()) {
        slot.message_id = queue_.start_next(r);
        slot.session.emplace(*g_, queue_.message(slot.message_id).origin);
        slot.protocol->reset(ctx_);
      }

      // 3. Service one local round of the slot's message.
      if (slot.session) {
        transmitters.clear();
        slot.protocol->select_transmitters(slot.session->current_round() + 1,
                                           slot.session->view(), protocol_rng,
                                           transmitters);
        slot.session->step(transmitters);
        metrics.transmissions += transmitters.size();

        // 4. Retire on completion.
        if (slot.session->complete()) {
          queue_.mark_delivered(slot.message_id, r);
          metrics.latencies.push_back(
              r - queue_.message(slot.message_id).arrival_round);
          slot.session.reset();
        }
      }

      metrics.max_waiting =
          std::max<std::uint64_t>(metrics.max_waiting, queue_.waiting());
      if (r == mid) metrics.waiting_mid = queue_.waiting();
      if (r % stride == 0 || r == config_.horizon)
        metrics.trajectory.push_back(
            QueueSample{r, queue_.waiting(),
                        static_cast<std::uint32_t>(queue_.in_flight())});
    }

    metrics.enqueued = queue_.total_enqueued();
    metrics.delivered = queue_.delivered();
    metrics.waiting_at_horizon = queue_.waiting();
    metrics.in_flight_at_horizon =
        static_cast<std::uint32_t>(queue_.in_flight());
    return metrics;
  }

  /// The arrival ledger (conservation checks, per-message forensics).
  const MessageQueue& queue() const noexcept { return queue_; }

 private:
  /// A pipeline slot: idle while `session` is empty.
  struct Slot {
    std::unique_ptr<Protocol> protocol;
    std::optional<LightSession<G>> session;
    std::uint64_t message_id = 0;
  };

  const G* g_;
  ProtocolContext ctx_;
  StreamConfig config_;
  std::array<Slot, kPipelineDepth> slots_;
  MessageQueue queue_;
  bool ran_ = false;
};

}  // namespace radio
