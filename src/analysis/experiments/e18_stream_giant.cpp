// E18 — queue stability over long horizons at giant n, streamed against the
// on-demand ImplicitGnp backend (no materialized graph ever exists).
//
// This is the "service under heavy traffic" experiment run at the scale the
// implicit backend unlocked: decay pipelined depth-2 in a
// StreamSession<ImplicitGnp> (sim/stream), G(n, 3 ln n / n) — the
// connectivity-safe density E2's giant mode uses — and horizons long enough
// that a queue either visibly drains or visibly diverges. The queue-depth
// trajectory is recorded per row so the manifest shows the SHAPE of
// (in)stability, not just the verdict: a stable λ's trajectory plateaus, an
// unstable one's climbs linearly at λ − μ.
//
// The driver always uses the implicit backend regardless of
// --graph-backend: its reason to exist is the regime where that is the only
// option. The stream's per-message sessions do not count collisions;
// message accounting is exact.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/throughput.hpp"
#include "analysis/trial_runner.hpp"
#include "graph/implicit_gnp.hpp"
#include "protocols/decay.hpp"
#include "sim/stream/stream_session.hpp"
#include "util/stats.hpp"

namespace radio {
namespace {

/// λ fractions of the GHK bound, ascending: the top point sits above
/// decay's giant-n capacity so the sweep shows both regimes.
constexpr double kRateFractions[] = {0.01, 0.05, 0.3};

std::string trajectory_string(const StreamMetrics& metrics) {
  std::string out;
  for (const QueueSample& sample : metrics.trajectory) {
    if (!out.empty()) out += ' ';
    out += std::to_string(sample.round) + ":" +
           std::to_string(sample.waiting);
  }
  return out;
}

}  // namespace

ExperimentResult run_e18_stream_giant(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E18");
  result.table = Table({"n", "d", "rate", "rate_frac", "delivered",
                        "throughput", "waiting_end", "backlog_growth",
                        "stable", "queue_traj", "trials"});

  const NodeId n = config.quick ? 50'000 : 1'000'000;
  const double d = 3.0 * std::log(static_cast<double>(n));
  const double p = d / static_cast<double>(n);
  const double bound = ghk_throughput_bound(n);
  const std::uint32_t horizon =
      config.horizon > 0 ? static_cast<std::uint32_t>(config.horizon)
                         : (config.quick ? 3000u : 8000u);
  // Giant-n trials cost seconds each; a fraction of the Monte-Carlo budget
  // buys the stability verdict (the per-trial signal is n-sized, not noisy).
  const int trials = std::max(1, config.trials / 8);

  std::vector<double> rates;
  if (config.rate > 0.0) {
    rates.push_back(config.rate);
  } else {
    for (const double frac : kRateFractions) rates.push_back(frac * bound);
  }

  std::vector<StabilityPoint> points;
  std::uint64_t cell = 0;
  for (const double rate : rates) {
    const std::uint64_t cell_seed = Rng::for_stream(config.seed, cell++)();
    const auto runs = run_trials<StreamMetrics>(
        trials, cell_seed, [&](int t, Rng& rng) {
          const ImplicitGnp g(n, p, rng());
          StreamConfig stream_config;
          stream_config.rate = rate;
          stream_config.horizon = horizon;
          stream_config.seed = cell_seed;
          stream_config.stream = static_cast<std::uint64_t>(t);
          stream_config.trajectory_samples = 4;
          StreamSession session(
              g, ProtocolContext{n, p},
              [](int) { return std::make_unique<DecayProtocol>(); },
              stream_config);
          return session.run();
        });
    std::vector<double> throughputs, growths;
    std::uint64_t delivered = 0, waiting_end = 0;
    for (const StreamMetrics& m : runs) {
      throughputs.push_back(m.throughput());
      growths.push_back(backlog_growth(m));
      delivered += m.delivered;
      waiting_end += m.waiting_at_horizon;
    }
    const double growth = mean(growths);
    const bool stable = stream_stable(rate, growth);
    points.push_back(StabilityPoint{rate, growth, stable});
    result.table.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(d, 1)
        .cell(rate, 6)
        .cell(rate / bound, 3)
        .cell(delivered)
        .cell(mean(throughputs), 6)
        .cell(waiting_end)
        .cell(growth, 6)
        .cell(stable ? "yes" : "no")
        .cell(trajectory_string(runs.front()))
        .cell(static_cast<std::uint64_t>(runs.size()));
  }

  result.note("stability knee at n=" + std::to_string(n) + ": lambda* = " +
              format_double(stability_knee(points), 6) + " (GHK bound " +
              format_double(bound, 6) +
              "); queue_traj is trial 0's round:waiting trajectory.");
  result.note(
      "implicit backend only (ignores --graph-backend): the graph is "
      "sampled on demand per neighborhood query, collisions are not counted "
      "on this light path.");
  return result;
}

}  // namespace radio
