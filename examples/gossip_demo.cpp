// Gossip demo: all-to-all rumor exchange on a random radio network — the
// extension subsystem (every node starts with its own rumor; completion
// means everyone knows everything). The schedulers are the broadcast
// protocols, run on a session in which every node is informed.
//
//   ./gossip_demo [--n=512] [--d=40] [--seed=13]
#include <cmath>
#include <cstdio>
#include <exception>

#include "analysis/workload.hpp"
#include "gossip/gossip_session.hpp"
#include "protocols/decay.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/uniform_gossip.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/stream_tags.hpp"

int main(int argc, char** argv) try {
  radio::CliArgs args(argc, argv);
  const auto n = static_cast<radio::NodeId>(args.get_uint("n", 512));
  const double ln_n = std::log(static_cast<double>(n));
  const double d = args.get_double("d", ln_n * ln_n);
  const std::uint64_t seed = args.get_uint("seed", 13);
  args.validate();

  radio::Rng rng(seed);
  const auto params = radio::GnpParams::with_degree(n, d);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  std::printf("all-to-all gossip on G(n=%u, d=%.1f): %u rumors in flight\n",
              instance.graph.num_nodes(), d, instance.graph.num_nodes());

  radio::Table table(
      {"protocol", "rounds", "transmissions", "coverage", "completed"});
  auto contend = [&](radio::Protocol& protocol, std::uint32_t budget) {
    radio::GossipSession session(instance.graph);
    radio::Rng run_rng = radio::Rng::for_stream(seed, radio::stream_tags::kExampleGossipRunStream);
    const radio::GossipRun run = radio::run_gossip(
        protocol, radio::context_for(instance), session, run_rng, budget);
    table.row()
        .cell(protocol.name())
        .cell(static_cast<std::uint64_t>(run.rounds))
        .cell(run.transmissions)
        .cell(run.coverage, 4)
        .cell(run.completed ? "yes" : "no");
  };

  radio::UniformGossipProtocol uniform;
  radio::RoundRobinProtocol round_robin;
  radio::DecayProtocol decay;
  contend(uniform, static_cast<std::uint32_t>(400.0 * ln_n));
  contend(round_robin, n * 16);
  contend(decay, static_cast<std::uint32_t>(1500.0 * ln_n));
  table.print("gossip protocols");

  std::printf(
      "\nthe uniform 1/d lottery completes in Theta(d*ln n) rounds: every "
      "rumor must first escape its source, which only transmits at rate "
      "1/d. Broadcast has no such bottleneck - one rumor, n carriers.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
