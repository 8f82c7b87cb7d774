// E3 — Theorem 7: the fully distributed randomized protocol needs O(ln n)
// rounds. Sweep n at d = ln² n (inside the theorem's p >= ln^δ n / n regime,
// δ = 2), run both the paper's protocol (selective tail restricted to nodes
// informed by round D) and the all-informed-tail variant, and fit
// rounds ≈ a·ln n + b for each.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "sim/runner.hpp"
#include "util/fit.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e3_distributed_scaling(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E3");
  result.table = Table({"variant", "n", "d", "trials", "rounds_mean",
                        "rounds_p95", "ln n", "mean/ln n", "completed"});

  std::vector<NodeId> grid = {1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14,
                              1 << 15};
  if (!config.quick) {
    grid.push_back(1 << 16);
    grid.push_back(1 << 17);
    grid.push_back(1 << 18);
  }

  const struct {
    const char* label;
    bool all_informed_tail;
  } variants[] = {{"paper tail", false}, {"all-informed tail", true}};

  for (const auto& variant : variants) {
    std::vector<double> fit_x, fit_y;
    for (NodeId n : grid) {
      const double nd = static_cast<double>(n);
      const double ln_n = std::log(nd);
      const double d = ln_n * ln_n;
      const GnpParams params = GnpParams::with_degree(n, d);
      const auto max_rounds = static_cast<std::uint32_t>(60.0 * ln_n);

      struct Trial {
        double rounds = 0;
        bool completed = false;
      };
      const auto trials = run_trials<Trial>(
          config.trials,
          derive_row_seed(config.seed, stream_tags::kE3DistributedScaling, n,
                          variant.all_informed_tail ? 1 : 0),
          [&](int, Rng& rng) {
            const BroadcastInstance instance =
                make_broadcast_instance(params, rng);
            DistributedOptions options;
            options.tail_includes_late_informed = variant.all_informed_tail;
            ElsasserGasieniecBroadcast protocol(options);
            const NodeId source = pick_source(instance.graph, rng);
            const BroadcastRun run =
                broadcast_with(protocol, context_for(instance), instance.graph,
                               source, rng, max_rounds);
            return Trial{static_cast<double>(run.rounds), run.completed};
          });

      std::vector<double> rounds;
      int completed = 0;
      for (const Trial& t : trials) {
        rounds.push_back(t.rounds);
        completed += t.completed ? 1 : 0;
      }
      const Summary s = summarize(rounds);
      result.table.row()
          .cell(variant.label)
          .cell(static_cast<std::uint64_t>(n))
          .cell(d, 1)
          .cell(static_cast<std::uint64_t>(trials.size()))
          .cell(s.mean, 2)
          .cell(s.p95, 1)
          .cell(ln_n, 2)
          .cell(s.mean / ln_n, 3)
          .cell(std::to_string(completed) + "/" +
                std::to_string(trials.size()));
      fit_x.push_back(ln_n);
      fit_y.push_back(s.mean);
    }
    const LinearFit fit = fit_line(fit_x, fit_y);
    result.note_fit(
        std::string(variant.label) + ": rounds ~= " +
            format_double(fit.coefficients[0], 3) + "*ln n + " +
            format_double(fit.coefficients[1], 2) + "  (R^2 = " +
            format_double(fit.r_squared, 4) + ")",
        ModelFitNote{variant.label,
                     "a*ln n + b",
                     {{"ln n", fit.coefficients[0]},
                      {"intercept", fit.coefficients[1]}},
                     fit.r_squared});
  }
  result.note(
      "paper shape check: positive slope with high R^2 against ln n "
      "reproduces the O(ln n) w.h.p. bound of Theorem 7.");
  return result;
}

}  // namespace radio
