// Streaming-workload driver shared by E16 and E17.
//
// run_stream_trial draws a fresh connected G(n,p) instance, builds a
// StreamingProtocol from the caller's factory, and runs a StreamSession
// (sim/stream/stream_session.hpp) on it. E18 runs its StreamSession on an
// ImplicitGnp directly, since the point there is a graph that is never
// materialized.
#pragma once

#include <functional>
#include <memory>

#include "analysis/workload.hpp"
#include "sim/stream/stream_session.hpp"

namespace radio {

/// Fresh StreamingProtocol per trial (adapters are stateful across rounds).
using StreamProtocolFactory =
    std::function<std::unique_ptr<StreamingProtocol>()>;

/// One streaming trial: draws a connected instance from `rng`,
/// builds the protocol, and runs a StreamSession with
/// StreamConfig{rate, horizon, seed, stream}.
StreamMetrics run_stream_trial(const GnpParams& params,
                               GraphBackendChoice backend,
                               const StreamProtocolFactory& make_protocol,
                               double rate, std::uint32_t horizon,
                               std::uint64_t seed, std::uint64_t stream,
                               Rng& rng);

}  // namespace radio
