// E11 — robustness (extension): what the centralized/distributed trade-off
// means operationally. A Theorem-5 schedule is computed on the intact graph;
// crashes then remove transmitters from its sets silently, so coverage
// degrades. The Theorem-7 protocol makes no topology commitments and keeps
// adapting. Loss faults slow both without breaking either.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "core/scheduled_protocol.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e11_fault_robustness(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E11");
  result.table = Table({"fault model", "algorithm", "informed frac (alive)",
                        "completed", "rounds_mean", "trials"});

  const NodeId n = config.quick ? (1 << 12) : (1 << 14);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);
  const double d = ln_n * ln_n;
  const GnpParams params = GnpParams::with_degree(n, d);
  const auto budget = static_cast<std::uint32_t>(100.0 * ln_n);

  struct Scenario {
    std::string label;
    double crash_fraction;
    double loss;
  };
  const Scenario scenarios[] = {
      {"none", 0.0, 0.0},          {"crash 5%", 0.05, 0.0},
      {"crash 20%", 0.20, 0.0},    {"loss 20%", 0.0, 0.20},
      {"crash 10% + loss 10%", 0.10, 0.10},
  };

  for (const Scenario& scenario : scenarios) {
    struct Trial {
      double cen_frac = 0, dist_frac = 0, cen_rounds = 0, dist_rounds = 0;
      bool cen_done = false, dist_done = false;
    };
    const auto trials = run_trials<Trial>(
        config.trials,
        derive_row_seed(config.seed, stream_tags::kE11FaultRobustness, stable_row_tag(scenario.label)),
        [&](int trial, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const NodeId source = pick_source(instance.graph, rng);
          SessionFaults faults;
          if (scenario.crash_fraction > 0.0)
            faults = make_crash_faults(instance.graph.num_nodes(),
                                       scenario.crash_fraction, source, rng);
          faults.loss = scenario.loss;
          faults.seed = config.seed * 1000003ULL + static_cast<std::uint64_t>(trial);

          Trial t;
          // Schedule planned BEFORE the faults hit, as a deployment would.
          const CentralizedResult built =
              build_centralized_schedule(instance.graph, source, d, rng);
          {
            BroadcastSession session(instance.graph, source, faults);
            ScheduledProtocol protocol(built.schedule);
            const BroadcastRun run =
                run_protocol(protocol, context_for(instance), session, rng,
                             std::max<std::uint32_t>(
                                 budget, static_cast<std::uint32_t>(
                                             built.schedule.length())));
            t.cen_frac = static_cast<double>(session.informed_count()) /
                         static_cast<double>(session.alive_count());
            t.cen_rounds = run.rounds;
            t.cen_done = run.completed;
          }
          {
            BroadcastSession session(instance.graph, source, faults);
            ElsasserGasieniecBroadcast protocol;
            const BroadcastRun run = run_protocol(
                protocol, context_for(instance), session, rng, budget);
            t.dist_frac = static_cast<double>(session.informed_count()) /
                          static_cast<double>(session.alive_count());
            t.dist_rounds = run.rounds;
            t.dist_done = run.completed;
          }
          return t;
        });

    auto emit = [&](const char* algo, auto frac_of, auto rounds_of,
                    auto done_of) {
      std::vector<double> frac, rounds;
      int done = 0;
      for (const Trial& t : trials) {
        frac.push_back(frac_of(t));
        rounds.push_back(rounds_of(t));
        done += done_of(t) ? 1 : 0;
      }
      result.table.row()
          .cell(scenario.label)
          .cell(algo)
          .cell(mean(frac), 4)
          .cell(std::to_string(done) + "/" + std::to_string(trials.size()))
          .cell(mean(rounds), 1)
          .cell(static_cast<std::uint64_t>(trials.size()));
    };
    emit("centralized (pre-planned)", [](const Trial& t) { return t.cen_frac; },
         [](const Trial& t) { return t.cen_rounds; },
         [](const Trial& t) { return t.cen_done; });
    emit("distributed (adaptive)", [](const Trial& t) { return t.dist_frac; },
         [](const Trial& t) { return t.dist_rounds; },
         [](const Trial& t) { return t.dist_done; });
  }

  result.note(
      "expected shape: without faults both complete; under crashes the "
      "pre-planned schedule strands survivors (its transmitter sets lost "
      "members) while the adaptive protocol still completes; pure loss only "
      "stretches round counts.");
  return result;
}

}  // namespace radio
