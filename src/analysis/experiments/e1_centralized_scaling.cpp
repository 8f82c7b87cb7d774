// E1 — Theorem 5 upper bound, scaling in n.
//
// For each degree regime d(n) ∈ {2·ln n, ln² n, n^(1/3)} and a grid of n,
// build the centralized schedule on fresh connected G(n,p) instances and
// record the rounds to full broadcast. The paper predicts
// rounds = Θ(ln n / ln d + ln d); the driver reports per-row means against
// that target and a global least-squares fit of
//   rounds ≈ a·(ln n / ln d) + b·ln d + c .
// Reproduction passes when the fit explains the data (R² high) and the
// per-row ratio to the target stays bounded as n grows.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "util/fit.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {
namespace {

struct Regime {
  const char* name;
  double (*degree)(double n);
};

double regime_2logn(double n) { return 2.0 * std::log(n); }
double regime_log2n(double n) { return std::log(n) * std::log(n); }
double regime_cbrt(double n) { return std::cbrt(n); }

constexpr Regime kRegimes[] = {
    {"d=2ln n", regime_2logn},
    {"d=ln^2 n", regime_log2n},
    {"d=n^(1/3)", regime_cbrt},
};

}  // namespace

ExperimentResult run_e1_centralized_scaling(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E1");
  result.table = Table({"regime", "n", "d", "trials", "rounds_mean",
                        "rounds_p95", "ecc_mean", "target", "mean/target",
                        "completed"});

  std::vector<NodeId> grid = {1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14};
  if (!config.quick) {
    grid.push_back(1 << 15);
    grid.push_back(1 << 16);
    grid.push_back(1 << 17);
  }

  std::vector<double> fit_n, fit_d, fit_rounds;
  for (const Regime& regime : kRegimes) {
    for (NodeId n : grid) {
      const double d = regime.degree(static_cast<double>(n));
      const GnpParams params = GnpParams::with_degree(n, d);

      struct Trial {
        double rounds = 0.0;
        double ecc = 0.0;
        bool completed = false;
      };
      const auto trials = run_trials<Trial>(
          config.trials,
          derive_row_seed(config.seed, stream_tags::kE1CentralizedScaling, n, static_cast<std::uint64_t>(d)),
          [&](int, Rng& rng) {
            const BroadcastInstance instance =
                make_broadcast_instance(params, rng);
            const NodeId source = pick_source(instance.graph, rng);
            const CentralizedResult built = build_centralized_schedule(
                instance.graph, source, instance.params.expected_degree(), rng);
            Trial t;
            t.rounds = static_cast<double>(built.report.total_rounds);
            t.ecc = static_cast<double>(built.report.eccentricity);
            t.completed = built.report.completed;
            return t;
          });

      std::vector<double> rounds, eccs;
      int completed = 0;
      for (const Trial& t : trials) {
        rounds.push_back(t.rounds);
        eccs.push_back(t.ecc);
        completed += t.completed ? 1 : 0;
      }
      const Summary s = summarize(rounds);
      const double target =
          centralized_target_rounds(static_cast<double>(n), d);
      result.table.row()
          .cell(regime.name)
          .cell(static_cast<std::uint64_t>(n))
          .cell(d, 1)
          .cell(static_cast<std::uint64_t>(trials.size()))
          .cell(s.mean, 2)
          .cell(s.p95, 1)
          .cell(mean(eccs), 2)
          .cell(target, 2)
          .cell(s.mean / target, 3)
          .cell(std::to_string(completed) + "/" +
                std::to_string(trials.size()));
      fit_n.push_back(static_cast<double>(n));
      fit_d.push_back(d);
      fit_rounds.push_back(s.mean);
    }
  }

  const BroadcastModelFit fit =
      fit_centralized_model(fit_n, fit_d, fit_rounds);
  result.note_fit(
      "fit: rounds ~= " + format_double(fit.diameter_coeff, 3) +
          "*(ln n/ln d) + " + format_double(fit.selective_coeff, 3) +
          "*ln d + " + format_double(fit.intercept, 2) + "   (R^2 = " +
          format_double(fit.r_squared, 4) + ")",
      ModelFitNote{"",
                   "a*(ln n/ln d) + b*ln d + c",
                   {{"ln n/ln d", fit.diameter_coeff},
                    {"ln d", fit.selective_coeff},
                    {"intercept", fit.intercept}},
                   fit.r_squared});
  result.note(
      "paper shape check: both fitted coefficients positive and R^2 near 1 "
      "means rounds track Theta(ln n/ln d + ln d).");
  return result;
}

}  // namespace radio
