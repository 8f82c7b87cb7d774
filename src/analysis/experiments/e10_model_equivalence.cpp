// E10 — model equivalence: "our results also hold for the Erdős–Rényi
// graphs" (§1.1/§2). G(n,m) with m = n·d/2 edges and G(n,p) with p = d/n are
// contiguous for these properties, so both algorithms should post the same
// round counts on both models. The driver runs the matched pair across a
// small n grid and reports the Gnm/Gnp round ratios, which should hover
// around 1.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "graph/components.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {
namespace {

/// Connected G(n,m) instance via resampling then giant-component fallback —
/// mirrors make_broadcast_instance for the Erdős–Rényi model.
Graph make_gnm_instance(NodeId n, EdgeCount m, Rng& rng) {
  Graph last;
  for (int attempt = 0; attempt < 8; ++attempt) {
    last = generate_gnm(n, m, rng);
    if (is_connected(last)) return last;
  }
  return largest_component_subgraph(last).graph;
}

}  // namespace

ExperimentResult run_e10_model_equivalence(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E10");
  result.table = Table({"algorithm", "n", "d", "rounds Gnp", "rounds Gnm",
                        "Gnm/Gnp", "trials"});

  std::vector<NodeId> grid = {1 << 10, 1 << 12};
  if (!config.quick) grid.push_back(1 << 14);

  for (NodeId n : grid) {
    const double nd = static_cast<double>(n);
    const double ln_n = std::log(nd);
    const double d = ln_n * ln_n;
    const GnpParams params = GnpParams::with_degree(n, d);
    const auto m = static_cast<EdgeCount>(nd * d / 2.0);
    const auto budget = static_cast<std::uint32_t>(80.0 * ln_n);

    struct Trial {
      double cen_gnp = 0, cen_gnm = 0, dist_gnp = 0, dist_gnm = 0;
    };
    const auto trials = run_trials<Trial>(
        config.trials, derive_row_seed(config.seed, stream_tags::kE10ModelEquivalence, n),
        [&](int, Rng& rng) {
          Trial t;
          {
            const BroadcastInstance inst = make_broadcast_instance(params, rng);
            Rng build_rng(rng());
            const CentralizedResult built = build_centralized_schedule(
                inst.graph, 0, d, build_rng);
            t.cen_gnp = built.report.total_rounds;
            ElsasserGasieniecBroadcast protocol;
            Rng run_rng(rng());
            t.dist_gnp = broadcast_with(protocol, context_for(inst),
                                        inst.graph, 0, run_rng, budget)
                             .rounds;
          }
          {
            const Graph gnm = make_gnm_instance(n, m, rng);
            Rng build_rng(rng());
            const CentralizedResult built =
                build_centralized_schedule(gnm, 0, d, build_rng);
            t.cen_gnm = built.report.total_rounds;
            ElsasserGasieniecBroadcast protocol;
            Rng run_rng(rng());
            const ProtocolContext ctx{gnm.num_nodes(), d / nd};
            t.dist_gnm =
                broadcast_with(protocol, ctx, gnm, 0, run_rng, budget).rounds;
          }
          return t;
        });

    std::vector<double> cen_gnp, cen_gnm, dist_gnp, dist_gnm;
    for (const Trial& t : trials) {
      cen_gnp.push_back(t.cen_gnp);
      cen_gnm.push_back(t.cen_gnm);
      dist_gnp.push_back(t.dist_gnp);
      dist_gnm.push_back(t.dist_gnm);
    }
    result.table.row()
        .cell("centralized (Thm 5)")
        .cell(static_cast<std::uint64_t>(n))
        .cell(d, 1)
        .cell(mean(cen_gnp), 2)
        .cell(mean(cen_gnm), 2)
        .cell(mean(cen_gnm) / mean(cen_gnp), 3)
        .cell(static_cast<std::uint64_t>(trials.size()));
    result.table.row()
        .cell("distributed (Thm 7)")
        .cell(static_cast<std::uint64_t>(n))
        .cell(d, 1)
        .cell(mean(dist_gnp), 2)
        .cell(mean(dist_gnm), 2)
        .cell(mean(dist_gnm) / mean(dist_gnp), 3)
        .cell(static_cast<std::uint64_t>(trials.size()));
  }

  result.note(
      "paper claim (section 1.1): the bounds hold in both random graph "
      "models; Gnm/Gnp ratios near 1 confirm the algorithms cannot tell the "
      "models apart.");
  return result;
}

}  // namespace radio
