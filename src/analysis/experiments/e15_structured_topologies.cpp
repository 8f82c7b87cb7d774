// E15 — structured topologies (extension, related-work context): the paper
// is about random graphs, where the diameter is O(ln n/ln d) and the
// collision lottery dominates. Feige et al.'s rumor results and Diks
// et al.'s radio algorithms live on bounded-degree and special topologies,
// where the DIAMETER dominates instead. Running the same protocols across
// hypercube / torus / ring / tree / random-regular shows the crossover:
// radio broadcast time tracks max(D, ln n)-flavoured quantities, collapsing
// to Θ(D) on constant-degree, large-diameter graphs where collisions are
// trivial to dodge.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "graph/degree.hpp"
#include "graph/diameter.hpp"
#include "graph/topologies.hpp"
#include "protocols/decay.hpp"
#include "singleport/rumor.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {
namespace {

struct Topology {
  std::string name;
  Graph graph;
  std::uint32_t diameter = 0;
};

std::vector<Topology> make_topologies(bool quick, Rng& rng) {
  std::vector<Topology> out;
  const unsigned dim = quick ? 10 : 12;
  out.push_back({"hypercube d=" + std::to_string(dim), make_hypercube(dim), dim});
  const NodeId side = quick ? 32 : 64;
  out.push_back({"torus " + std::to_string(side) + "x" + std::to_string(side),
                 make_torus(side, side), side});  // 2*(side/2)
  const NodeId ring_n = quick ? 256 : 512;
  out.push_back({"ring n=" + std::to_string(ring_n), make_ring(ring_n),
                 ring_n / 2});
  out.push_back({"binary tree depth=9", make_complete_tree(2, 9), 18});
  const NodeId reg_n = quick ? 1024 : 4096;
  out.push_back({"random 8-regular n=" + std::to_string(reg_n),
                 make_random_regular(reg_n, 8, rng), 0});
  // Fill in measured diameters where the formulaic one is 0 or approximate.
  for (Topology& t : out) {
    Rng sweep_rng(7);
    t.diameter = double_sweep_diameter(t.graph, sweep_rng);
  }
  return out;
}

}  // namespace

ExperimentResult run_e15_structured_topologies(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E15");
  result.table = Table({"topology", "n", "degree", "diameter~", "protocol",
                        "rounds_mean", "completed", "trials"});

  Rng topo_rng(config.seed);
  const std::vector<Topology> topologies =
      make_topologies(config.quick, topo_rng);

  for (const Topology& topology : topologies) {
    const Graph& g = topology.graph;
    const double mean_degree = degree_stats(g).mean_degree;
    const ProtocolContext ctx{g.num_nodes(),
                              mean_degree / static_cast<double>(g.num_nodes())};
    const auto budget = static_cast<std::uint32_t>(
        20.0 * (topology.diameter +
                std::log(static_cast<double>(g.num_nodes()))) + 200.0);

    struct Entry {
      const char* label;
      int kind;  // 0 EG variant, 1 decay, 2 rumor push
    };
    const Entry entries[] = {
        {"eg (all-informed tail)", 0}, {"decay (BGI)", 1}, {"rumor push", 2}};

    for (const Entry& entry : entries) {
      const auto rounds = run_trials_double(
          std::max(2, config.trials / 2),
          derive_row_seed(config.seed, stream_tags::kE15StructuredTopologies, stable_row_tag(topology.name),
                          static_cast<std::uint64_t>(entry.kind)),
          [&](int trial, Rng& rng) {
            const auto source = static_cast<NodeId>(
                rng.uniform_below(g.num_nodes()));
            (void)trial;
            if (entry.kind == 2) {
              const RumorRun run =
                  spread_rumor(g, source, RumorMode::kPush, rng, budget);
              return run.completed ? static_cast<double>(run.rounds)
                                   : static_cast<double>(budget + 1);
            }
            DistributedOptions options;
            options.tail_includes_late_informed = true;
            ElsasserGasieniecBroadcast eg(options);
            DecayProtocol decay;
            Protocol* protocol = entry.kind == 0 ? static_cast<Protocol*>(&eg)
                                                 : static_cast<Protocol*>(&decay);
            const BroadcastRun run =
                broadcast_with(*protocol, ctx, g, source, rng, budget);
            return run.completed ? static_cast<double>(run.rounds)
                                 : static_cast<double>(budget + 1);
          });
      int completed = 0;
      for (double r : rounds)
        if (r <= budget) ++completed;
      result.table.row()
          .cell(topology.name)
          .cell(static_cast<std::uint64_t>(g.num_nodes()))
          .cell(mean_degree, 1)
          .cell(static_cast<std::uint64_t>(topology.diameter))
          .cell(entry.label)
          .cell(mean(rounds), 1)
          .cell(std::to_string(completed) + "/" + std::to_string(rounds.size()))
          .cell(static_cast<std::uint64_t>(rounds.size()));
    }
  }

  result.note(
      "reading: on the ring and torus rounds track the diameter (collisions "
      "are easy to dodge at degree <= 4); on the hypercube and the random "
      "regular graph both terms are logarithmic — the random-graph bounds "
      "are the collision-dominated corner of a max(D, ln n) landscape.");
  return result;
}

}  // namespace radio
