// E12 — gossiping (extension): the paper's conclusions ask about problems
// beyond broadcast; all-to-all rumor exchange is the canonical one.
//
// Expected shape for the uniform 1/d lottery: Θ(d·ln n). The binding
// constraint is no longer spreading (knowledge sets merge in batches) but
// ESCAPE — rumor v only leaves its source once v transmits AND is uniquely
// heard, a ~1/(e·d) event per round, and the maximum over n independent
// geometric waits is ~e·d·ln n. Contrast with broadcast, where the single
// message has Θ(n) carriers as soon as it spreads. Round-robin needs Θ(n·D)
// deterministic rounds; decay pays its phase overhead on top. All three are
// the broadcast protocols, run on GossipSession's everyone-informed view.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "gossip/gossip_session.hpp"
#include "protocols/decay.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/uniform_gossip.hpp"
#include "util/fit.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e12_gossip_scaling(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E12");
  result.table = Table({"protocol", "n", "d", "rounds_mean", "rounds_p95",
                        "coverage", "completed", "trials"});

  std::vector<NodeId> grid = {1 << 8, 1 << 9, 1 << 10, 1 << 11};
  if (!config.quick) grid.push_back(1 << 12);

  std::vector<double> fit_x, fit_y;
  for (NodeId n : grid) {
    const double nd = static_cast<double>(n);
    const double ln_n = std::log(nd);
    const double d = ln_n * ln_n;
    const GnpParams params = GnpParams::with_degree(n, d);

    struct Entry {
      const char* label;
      int kind;  // 0 uniform, 1 round-robin, 2 decay
      std::uint32_t budget;
    };
    const Entry entries[] = {
        {"gossip-uniform q=1/d", 0, static_cast<std::uint32_t>(300.0 * ln_n)},
        {"gossip-round-robin", 1, n * 12},
        {"gossip-decay", 2, static_cast<std::uint32_t>(300.0 * ln_n)},
    };

    for (const Entry& entry : entries) {
      struct Trial {
        double rounds = 0, coverage = 0;
        bool completed = false;
      };
      const auto trials = run_trials<Trial>(
          std::max(2, config.trials / 2),
          derive_row_seed(config.seed, stream_tags::kE12GossipScaling, n,
                          static_cast<std::uint64_t>(entry.kind)),
          [&](int, Rng& rng) {
            const BroadcastInstance instance =
                make_broadcast_instance(params, rng);
            GossipSession session(instance.graph);
            UniformGossipProtocol uniform;
            RoundRobinProtocol round_robin;
            DecayProtocol decay;
            Protocol* const protocols[] = {&uniform, &round_robin, &decay};
            const GossipRun run =
                run_gossip(*protocols[entry.kind], context_for(instance),
                           session, rng, entry.budget);
            return Trial{static_cast<double>(run.rounds), run.coverage,
                         run.completed};
          });
      std::vector<double> rounds, coverage;
      int completed = 0;
      for (const Trial& t : trials) {
        rounds.push_back(t.rounds);
        coverage.push_back(t.coverage);
        completed += t.completed ? 1 : 0;
      }
      const Summary s = summarize(rounds);
      result.table.row()
          .cell(entry.label)
          .cell(static_cast<std::uint64_t>(n))
          .cell(d, 1)
          .cell(s.mean, 1)
          .cell(s.p95, 1)
          .cell(mean(coverage), 4)
          .cell(std::to_string(completed) + "/" + std::to_string(trials.size()))
          .cell(static_cast<std::uint64_t>(trials.size()));
      if (entry.kind == 0) {
        fit_x.push_back(ln_n);
        fit_y.push_back(s.mean);
      }
    }
  }

  const LinearFit fit = fit_line(fit_x, fit_y);
  result.note_fit(
      "gossip-uniform: rounds ~= " + format_double(fit.coefficients[0], 2) +
          "*ln n + " + format_double(fit.coefficients[1], 2) + " (R^2 = " +
          format_double(fit.r_squared, 3) +
          "); with d = ln^2 n this matches the Theta(d*ln n) escape bound — "
          "gossip pays a factor-d premium over broadcast because every rumor "
          "must first leave its 1/d-rate source.",
      ModelFitNote{"gossip-uniform",
                   "a*ln n + b",
                   {{"ln n", fit.coefficients[0]},
                    {"intercept", fit.coefficients[1]}},
                   fit.r_squared});
  result.note(
      "round-robin is collision-free but pays Theta(n) per sweep; decay "
      "pays its log-factor phase overhead.");
  return result;
}

}  // namespace radio
