// E9 — ablation of Theorem 5's design choices (DESIGN.md §10).
//
// Each row mutates one ingredient of the centralized builder and reports
// rounds + phase breakdown on the same workload:
//   * paper default;
//   * no parity pipeline (small layers flood every round — self-jamming);
//   * phase-2 sets may reuse nodes (drops the paper's disjointness);
//   * no private matching in the mop-up (sampled covers only);
//   * selective rate halved / doubled (sensitivity of the 1/d choice);
//   * fewer selective rounds (c = 1 instead of 4).
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e9_phase_ablation(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E9");
  result.table = Table({"config", "rounds_mean", "rounds_p95", "phase1",
                        "phase2", "phase3", "tx_mean", "completed"});

  const NodeId n = config.quick ? (1 << 13) : (1 << 15);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);
  const double d = ln_n * ln_n;
  const GnpParams params = GnpParams::with_degree(n, d);

  struct Config {
    const char* label;
    CentralizedOptions options;
  };
  std::vector<Config> configs;
  configs.push_back({"paper default", {}});
  {
    CentralizedOptions o;
    o.ablate_parity = true;
    configs.push_back({"no parity pipeline (flood small layers)", o});
  }
  {
    CentralizedOptions o;
    o.ablate_disjoint_sets = true;
    configs.push_back({"phase2 sets may reuse nodes", o});
  }
  {
    CentralizedOptions o;
    o.use_private_matching = false;
    configs.push_back({"mop-up: sampled covers only", o});
  }
  {
    CentralizedOptions o;
    o.selective_rate_scale = 0.5;
    configs.push_back({"selective rate 0.5/d", o});
  }
  {
    CentralizedOptions o;
    o.selective_rate_scale = 2.0;
    configs.push_back({"selective rate 2/d", o});
  }
  {
    CentralizedOptions o;
    o.selective_rounds_factor = 1.0;
    configs.push_back({"selective budget 1*ln d", o});
  }

  for (const Config& cfg : configs) {
    struct Trial {
      double rounds = 0, p1 = 0, p2 = 0, p3 = 0, tx = 0;
      bool completed = false;
    };
    const auto trials = run_trials<Trial>(
        config.trials,
        derive_row_seed(config.seed, stream_tags::kE9PhaseAblation, stable_row_tag(cfg.label)),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const NodeId source = pick_source(instance.graph, rng);
          const CentralizedResult built = build_centralized_schedule(
              instance.graph, source, instance.params.expected_degree(), rng,
              cfg.options);
          return Trial{static_cast<double>(built.report.total_rounds),
                       static_cast<double>(built.report.phase1_rounds),
                       static_cast<double>(built.report.phase2_rounds),
                       static_cast<double>(built.report.phase3_rounds),
                       static_cast<double>(built.report.total_transmissions),
                       built.report.completed};
        });
    std::vector<double> rounds, p1, p2, p3, tx;
    int completed = 0;
    for (const Trial& t : trials) {
      rounds.push_back(t.rounds);
      p1.push_back(t.p1);
      p2.push_back(t.p2);
      p3.push_back(t.p3);
      tx.push_back(t.tx);
      completed += t.completed ? 1 : 0;
    }
    const Summary s = summarize(rounds);
    result.table.row()
        .cell(cfg.label)
        .cell(s.mean, 2)
        .cell(s.p95, 1)
        .cell(mean(p1), 2)
        .cell(mean(p2), 2)
        .cell(mean(p3), 2)
        .cell(mean(tx), 0)
        .cell(std::to_string(completed) + "/" + std::to_string(trials.size()));
  }

  result.note(
      "reading the table: ablations should complete (the builder degrades "
      "gracefully) but pay extra phase-3 sweeps or selective rounds; rate "
      "0.5/d and 2/d bracket the paper's 1/d optimum.");
  return result;
}

}  // namespace radio
