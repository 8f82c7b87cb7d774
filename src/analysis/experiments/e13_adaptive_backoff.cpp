// E13 — collision detection vs parameter knowledge (extension).
//
// Theorem 7's protocol needs every node to know n and p. The adaptive
// backoff protocol knows only n but runs in the collision-detection model
// extension: binary-exponential backoff on local channel feedback learns the
// 1/d transmission rate instead of computing it. The experiment measures the
// price of learning: rounds vs n for (a) Theorem 7 (knows p, no CD),
// (b) adaptive backoff (no p, CD), (c) uniform 1/d gossip (knows p — the
// rate backoff is trying to learn).
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "protocols/adaptive_backoff.hpp"
#include "protocols/uniform_gossip.hpp"
#include "sim/runner.hpp"
#include "util/fit.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e13_adaptive_backoff(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E13");
  result.table = Table({"protocol", "knows p", "collision detection", "n",
                        "rounds_mean", "rounds_p95", "completed", "trials"});

  std::vector<NodeId> grid = {1 << 10, 1 << 11, 1 << 12, 1 << 13};
  if (!config.quick) grid.push_back(1 << 15);

  struct Entry {
    const char* label;
    const char* knows_p;
    const char* cd;
    int kind;  // 0 Thm7, 1 adaptive, 2 uniform 1/d
  };
  const Entry entries[] = {
      {"elsasser-gasieniec (Thm 7)", "yes", "no", 0},
      {"adaptive-backoff", "no", "yes", 1},
      {"uniform-gossip q=1/d", "yes", "no", 2},
  };

  for (const Entry& entry : entries) {
    std::vector<double> fit_x, fit_y;
    for (NodeId n : grid) {
      const double nd = static_cast<double>(n);
      const double ln_n = std::log(nd);
      const double d = ln_n * ln_n;
      const GnpParams params = GnpParams::with_degree(n, d);
      const auto budget = static_cast<std::uint32_t>(200.0 * ln_n);

      struct Trial {
        double rounds = 0;
        bool completed = false;
      };
      const auto trials = run_trials<Trial>(
          config.trials,
          derive_row_seed(config.seed, stream_tags::kE13AdaptiveBackoff, n,
                          static_cast<std::uint64_t>(entry.kind)),
          [&](int, Rng& rng) {
            const BroadcastInstance instance =
                make_broadcast_instance(params, rng);
            const NodeId source = pick_source(instance.graph, rng);
            ElsasserGasieniecBroadcast thm7;
            AdaptiveBackoffProtocol adaptive;
            UniformGossipProtocol uniform;
            Protocol* protocol = entry.kind == 0
                                     ? static_cast<Protocol*>(&thm7)
                                     : entry.kind == 1
                                           ? static_cast<Protocol*>(&adaptive)
                                           : static_cast<Protocol*>(&uniform);
            const BroadcastRun run =
                broadcast_with(*protocol, context_for(instance),
                               instance.graph, source, rng, budget);
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
          .cell(entry.label)
          .cell(entry.knows_p)
          .cell(entry.cd)
          .cell(static_cast<std::uint64_t>(n))
          .cell(s.mean, 1)
          .cell(s.p95, 1)
          .cell(std::to_string(completed) + "/" + std::to_string(trials.size()))
          .cell(static_cast<std::uint64_t>(trials.size()));
      fit_x.push_back(ln_n);
      fit_y.push_back(s.mean);
    }
    const LinearFit fit = fit_line(fit_x, fit_y);
    result.note_fit(
        std::string(entry.label) + ": rounds ~= " +
            format_double(fit.coefficients[0], 2) + "*ln n + " +
            format_double(fit.coefficients[1], 2) + " (R^2 = " +
            format_double(fit.r_squared, 3) + ")",
        ModelFitNote{entry.label,
                     "a*ln n + b",
                     {{"ln n", fit.coefficients[0]},
                      {"intercept", fit.coefficients[1]}},
                     fit.r_squared});
  }

  result.note(
      "reading: adaptive backoff trades the p-knowledge of Theorem 7 for "
      "collision detection and stays O(ln n)-shaped with a constant-factor "
      "learning premium.");
  return result;
}

}  // namespace radio
