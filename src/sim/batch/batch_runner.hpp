// Dispatch seam between per-instance and batched broadcast execution, and
// the batched trial loop itself.
//
// Batching requires trials that share ONE graph (the lane words are slices
// over a single adjacency): workloads that sample a fresh G(n,p) per trial
// (e.g. E1's per-trial instances) are structurally per-instance and use the
// classic RadioEngine path unchanged. For shared-instance workloads the cost
// model here decides how many lanes actually pay:
//
//   * width — one BatchEngine holds at most kMaxBatchLanes lanes, and never
//     more lanes than trials;
//   * oversized — lane state grows with 4·n plane words plus per-lane
//     mirrors; batch_lanes_for halves the lane count until the whole working
//     set stays under kBatchStateByteLimit, down to the per-instance path;
//   * observation feedback — protocols that want per-node channel
//     observations (collision-detection extension) need state the planes do
//     not track: per-instance fallback;
//   * degenerate — fewer than 2 trials or fewer than 2 lanes: per-instance.
//
// The batched loop hosts one trial per lane: its own Protocol instance, its
// own Rng::for_stream(seed, first_stream + trial) stream and its own round
// counter in the engine. Every sweep steps all occupied lanes by one round;
// a lane whose trial completes (or exhausts the round budget) retires at
// once and takes the next queued trial WITHOUT waiting for its batch-mates.
//
// Determinism contract: trial t's result equals broadcast_with(factory(t),
// ctx, g, source, Rng::for_stream(seed, first_stream + t), max_rounds)
// byte-for-byte on either path and for ANY lane count — lane packing
// affects wall time only. tests/analysis/test_batch_determinism.cpp pins
// this.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/batch/batch_engine.hpp"
#include "sim/runner.hpp"

namespace radio {

/// Total bytes of batch lane state allowed (planes + mirrors): the same cap
/// as an adjacency bitmap's (graph/graph.hpp).
inline constexpr std::size_t kBatchStateByteLimit = kBitmapByteLimit;

/// Bytes of lane state a B-lane engine holds on g (4 planes of n words plus
/// per-lane informed mirror and round array).
std::size_t batch_state_bytes(const Graph& g, std::uint32_t lanes) noexcept;

/// The cost model's lane clamp: `requested` capped at kMaxBatchLanes, then
/// halved until its state fits kBatchStateByteLimit (1 when batching does
/// not apply — requested < 2 or the graph has fewer than 2 nodes).
std::uint32_t batch_lanes_for(const Graph& g, std::uint32_t requested) noexcept;

/// Which execution path the dispatcher chose, and why
/// (tests/analysis/test_batch_dispatch.cpp pins each reason).
struct BatchDispatch {
  enum class Path { kBatched, kPerInstance };

  Path path = Path::kPerInstance;
  std::uint32_t lanes = 1;    ///< effective lane width (1 on per-instance)
  const char* reason = "";    ///< why per-instance; "" when batched
};

/// Pure cost-model decision for run_broadcast_batch:
/// clamps `requested_lanes` via batch_lanes_for and reports per-instance
/// for degenerate trial counts or observation-feedback protocols (probes
/// factory(0) once; `factory` must be pure).
BatchDispatch plan_broadcast_batch(const Graph& g, int trials,
                                   const ProtocolFactory& factory,
                                   std::uint32_t requested_lanes);

/// Runs `trials` broadcasts of factory(t) on the SHARED graph g from
/// `source`, trial t drawing from Rng::for_stream(seed, first_stream + t),
/// batched up to `lanes` wide when the cost model approves and
/// per-instance otherwise. Serial (no OpenMP): its callers are perfbench's
/// `oblivious_batch` workload, bench_layers' `BM_BatchSweep` and the
/// `Batch*` test suites.
///
/// `factory` must be pure (no side effects): the dispatcher probes
/// factory(0) once to detect observation-feedback protocols.
std::vector<BroadcastRun> run_broadcast_batch(
    const Graph& g, const ProtocolContext& ctx, NodeId source, int trials,
    std::uint64_t seed, std::uint64_t first_stream,
    const ProtocolFactory& factory, std::uint32_t max_rounds,
    std::uint32_t lanes);

}  // namespace radio
