// Streaming-workload driver shared by E16 and E17.
//
// run_stream_trial draws a fresh connected G(n,p) instance and runs a
// StreamSession (sim/stream/stream_session.hpp) on it, each pipeline slot
// running a protocol from the caller's factory. E18 runs its StreamSession
// on an ImplicitGnp directly, since the point there is a graph that is never
// materialized.
#pragma once

#include "analysis/workload.hpp"
#include "sim/stream/stream_session.hpp"

namespace radio {

/// One streaming trial: draws a connected instance from `rng` and runs a
/// StreamSession with StreamConfig{rate, horizon, seed, stream}, slot s
/// running make_protocol(s).
StreamMetrics run_stream_trial(const GnpParams& params,
                               GraphBackendChoice backend,
                               const ProtocolFactory& make_protocol,
                               double rate, std::uint32_t horizon,
                               std::uint64_t seed, std::uint64_t stream,
                               Rng& rng);

}  // namespace radio
