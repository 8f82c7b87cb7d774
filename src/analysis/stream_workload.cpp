#include "analysis/stream_workload.hpp"

namespace radio {

StreamMetrics run_stream_trial(const GnpParams& params,
                               GraphBackendChoice backend,
                               const ProtocolFactory& make_protocol,
                               double rate, std::uint32_t horizon,
                               std::uint64_t seed, std::uint64_t stream,
                               Rng& rng) {
  const BroadcastInstance instance =
      make_broadcast_instance(params, rng, backend);
  StreamConfig config;
  config.rate = rate;
  config.horizon = horizon;
  config.seed = seed;
  config.stream = stream;
  StreamSession session(instance.graph, context_for(instance), make_protocol,
                        config);
  return session.run();
}

}  // namespace radio
