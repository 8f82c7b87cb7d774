#include "sim/batch/batch_runner.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"

namespace radio {

namespace {

/// One lane's trial: its protocol, its stream and its tallies so far.
struct LaneTrial {
  int trial = -1;  ///< -1: empty
  std::unique_ptr<Protocol> protocol;
  Rng rng;
  BroadcastRun partial;
};

/// The batched path of run_broadcast_batch: trials [0, trials) through one
/// engine of min(lanes, trials) lanes, in trial order.
std::vector<BroadcastRun> run_lanes(const Graph& g, const ProtocolContext& ctx,
                                    NodeId source, int trials,
                                    std::uint64_t seed,
                                    std::uint64_t first_stream,
                                    const ProtocolFactory& factory,
                                    std::uint32_t max_rounds,
                                    std::uint32_t lanes) {
  RADIO_EXPECTS(max_rounds > 0);
  std::vector<BroadcastRun> results(static_cast<std::size_t>(trials));
  const std::uint32_t lane_count =
      std::min(lanes, static_cast<std::uint32_t>(trials));
  BatchEngine engine(g, lane_count);
  std::vector<LaneTrial> slots(lane_count);

  int next_trial = 0;
  int in_flight = 0;
  const auto start_trial = [&](std::uint32_t lane) {
    LaneTrial& slot = slots[lane];
    slot.trial = next_trial++;
    slot.protocol = factory(slot.trial);
    RADIO_EXPECTS(slot.protocol != nullptr);
    // Observation feedback needs per-node channel state the lane words do
    // not track; plan_broadcast_batch routes such protocols per-instance.
    RADIO_EXPECTS(!slot.protocol->wants_observations());
    slot.rng = Rng::for_stream(
        seed, first_stream + static_cast<std::uint64_t>(slot.trial));
    slot.partial = BroadcastRun{};
    slot.protocol->reset(ctx);
    engine.open_lane(lane, source);
    ++in_flight;
  };
  for (std::uint32_t lane = 0; lane < lane_count; ++lane) start_trial(lane);

  std::vector<std::uint32_t> active;
  std::vector<NodeId> tx;
  while (in_flight > 0) {
    // Retire finished trials and refill their lanes from the queue — a lane
    // executes a round only while incomplete and under budget, exactly
    // run_protocol's loop condition per trial.
    for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
      LaneTrial& slot = slots[lane];
      while (slot.trial >= 0 &&
             (engine.complete(lane) || slot.partial.rounds >= max_rounds)) {
        slot.partial.completed = engine.complete(lane);
        slot.partial.informed = engine.informed_count(lane);
        results[static_cast<std::size_t>(slot.trial)] = slot.partial;
        slot.trial = -1;
        slot.protocol.reset();
        --in_flight;
        if (next_trial < trials) start_trial(lane);
      }
    }
    if (in_flight == 0) break;

    // Select transmitters lane by lane, each from its own stream against its
    // own knowledge view, then advance every occupied lane in one sweep.
    active.clear();
    for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
      LaneTrial& slot = slots[lane];
      if (slot.trial < 0) continue;
      active.push_back(lane);
      tx.clear();
      slot.protocol->select_transmitters(engine.round(lane) + 1,
                                         engine.view(lane), slot.rng, tx);
      engine.add_transmitters(lane, tx);
      slot.partial.transmissions += tx.size();
    }
    engine.step(active);
    for (std::uint32_t lane : active) {
      ++slots[lane].partial.rounds;
      slots[lane].partial.collisions += engine.outcome(lane).collisions;
    }
  }
  return results;
}

}  // namespace

std::size_t batch_state_bytes(const Graph& g, std::uint32_t lanes) noexcept {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t planes = 4 * n * sizeof(std::uint64_t);
  const std::size_t mirror = words_for_bits(n) * sizeof(std::uint64_t);
  const std::size_t rounds = n * sizeof(std::uint32_t);
  return planes + static_cast<std::size_t>(lanes) * (mirror + rounds);
}

std::uint32_t batch_lanes_for(const Graph& g,
                              std::uint32_t requested) noexcept {
  if (requested < 2 || g.num_nodes() < 2) return 1;
  std::uint32_t lanes = std::min(requested, kMaxBatchLanes);
  while (lanes > 1 && batch_state_bytes(g, lanes) > kBatchStateByteLimit)
    lanes /= 2;
  return lanes;
}

BatchDispatch plan_broadcast_batch(const Graph& g, int trials,
                                   const ProtocolFactory& factory,
                                   std::uint32_t requested_lanes) {
  BatchDispatch plan;
  plan.lanes = batch_lanes_for(g, requested_lanes);
  if (plan.lanes < 2) {
    plan.lanes = 1;
    plan.reason = requested_lanes < 2 ? "batching not requested"
                                      : "cost model clamped lanes below 2";
    return plan;
  }
  if (trials < 2) {
    plan.lanes = 1;
    plan.reason = "fewer than 2 trials";
    return plan;
  }
  const std::unique_ptr<Protocol> probe = factory(0);
  RADIO_EXPECTS(probe != nullptr);
  if (probe->wants_observations()) {
    plan.lanes = 1;
    plan.reason = "observation-feedback protocol";
    return plan;
  }
  plan.path = BatchDispatch::Path::kBatched;
  return plan;
}

std::vector<BroadcastRun> run_broadcast_batch(
    const Graph& g, const ProtocolContext& ctx, NodeId source, int trials,
    std::uint64_t seed, std::uint64_t first_stream,
    const ProtocolFactory& factory, std::uint32_t max_rounds,
    std::uint32_t lanes) {
  RADIO_EXPECTS(trials >= 0);
  const BatchDispatch plan = plan_broadcast_batch(g, trials, factory, lanes);
  if (plan.path == BatchDispatch::Path::kBatched)
    return run_lanes(g, ctx, source, trials, seed, first_stream, factory,
                     max_rounds, plan.lanes);

  std::vector<BroadcastRun> results(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    Rng rng =
        Rng::for_stream(seed, first_stream + static_cast<std::uint64_t>(t));
    const std::unique_ptr<Protocol> protocol = factory(t);
    RADIO_EXPECTS(protocol != nullptr);
    results[static_cast<std::size_t>(t)] =
        broadcast_with(*protocol, ctx, g, source, rng, max_rounds);
  }
  return results;
}

}  // namespace radio
