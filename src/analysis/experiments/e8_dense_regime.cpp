// E8 — the dense regime of §3.1: p = 1 − f(n), f ∈ [1/n, 1/2].
//
// The paper's closing remark: broadcasting then takes Θ(ln n / ln(1/f))
// rounds. Intuition: with p close to 1, a random transmitter set of size k
// reaches a listener uniquely with probability ≈ k·f^(k-1); the usable
// lottery shrinks, and ln(1/f) replaces ln d as the per-round information
// gain. The driver sweeps f at fixed n, runs the centralized builder
// (it adapts through the same three phases) and compares to the target.
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

ExperimentResult run_e8_dense_regime(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E8");
  result.table = Table({"n", "f", "p", "trials", "rounds_mean", "rounds_p95",
                        "target ln n/ln(1/f)", "mean/target", "completed"});

  const NodeId n = config.quick ? (1 << 11) : (1 << 12);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);

  const double fs[] = {0.5, std::pow(nd, -0.25), std::pow(nd, -0.5),
                       8.0 * ln_n / nd};

  for (double f : fs) {
    const GnpParams params{n, 1.0 - f};
    struct Trial {
      double rounds = 0;
      bool completed = false;
    };
    const auto trials = run_trials<Trial>(
        config.trials,
        derive_row_seed(config.seed, stream_tags::kE8DenseRegime, static_cast<std::uint64_t>(f * 1e6)),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const NodeId source = pick_source(instance.graph, rng);
          const CentralizedResult built = build_centralized_schedule(
              instance.graph, source, instance.params.expected_degree(), rng);
          return Trial{static_cast<double>(built.report.total_rounds),
                       built.report.completed};
        });
    std::vector<double> rounds;
    int completed = 0;
    for (const Trial& t : trials) {
      rounds.push_back(t.rounds);
      completed += t.completed ? 1 : 0;
    }
    const Summary s = summarize(rounds);
    const double target = std::max(1.0, ln_n / std::log(1.0 / f));
    result.table.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(f, 5)
        .cell(params.p, 5)
        .cell(static_cast<std::uint64_t>(trials.size()))
        .cell(s.mean, 2)
        .cell(s.p95, 1)
        .cell(target, 2)
        .cell(s.mean / target, 3)
        .cell(std::to_string(completed) + "/" + std::to_string(trials.size()));
  }

  result.note(
      "shape check: as f shrinks (denser graph) the target ln n/ln(1/f) "
      "collapses toward 1-2 rounds and the measured rounds follow; at "
      "f = 1/2 the round count is ~log2 n, the hardest dense case.");
  return result;
}

}  // namespace radio
