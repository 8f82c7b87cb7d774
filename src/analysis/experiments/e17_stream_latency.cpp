// E17 — per-message latency distribution at fixed λ fractions of the GHK
// throughput bound (E16's stable regime, looked at from the message's side).
//
// At low utilisation a message's latency is dominated by its own service
// time — pipeline depth × decay's broadcast rounds, plus up to depth-1
// rounds of slot alignment. As λ climbs toward the stability knee the
// queueing wait takes over and the upper quantiles stretch long before the
// mean does: the p95/mean ratio widening with λ is the classic
// saturation-onset signature, measured here with exact per-message
// bookkeeping (completion − arrival, queueing included) from the
// MessageQueue ledger.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/stream_workload.hpp"
#include "analysis/throughput.hpp"
#include "analysis/trial_runner.hpp"
#include "protocols/decay.hpp"
#include "util/stats.hpp"

namespace radio {
namespace {

/// λ as fractions of the GHK bound — all at or below decay's knee
/// neighbourhood so most trials stay stable and latencies are well defined.
constexpr double kRateFractions[] = {0.02, 0.05, 0.1, 0.15};

}  // namespace

ExperimentResult run_e17_stream_latency(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E17");
  result.table = Table({"n", "d", "rate", "rate_frac", "delivered",
                        "delivery_ratio", "lat_mean", "lat_p50", "lat_p95",
                        "lat_max", "max_queue", "trials"});

  std::vector<NodeId> grid = {1 << 9};
  if (!config.quick) grid.push_back(1 << 10);
  const std::uint32_t horizon =
      config.horizon > 0 ? static_cast<std::uint32_t>(config.horizon)
                         : (config.quick ? 2000u : 4000u);

  std::uint64_t cell = 0;
  for (NodeId n : grid) {
    const double ln_n = std::log(static_cast<double>(n));
    const GnpParams params = GnpParams::with_degree(n, ln_n * ln_n);
    const double bound = ghk_throughput_bound(n);

    std::vector<double> rates;
    if (config.rate > 0.0) {
      rates.push_back(config.rate);
    } else {
      for (const double frac : kRateFractions) rates.push_back(frac * bound);
    }

    for (const double rate : rates) {
      const std::uint64_t cell_seed = Rng::for_stream(config.seed, cell++)();
      const auto trials = run_trials<StreamMetrics>(
          config.trials, cell_seed, [&](int t, Rng& rng) {
            return run_stream_trial(
                params, config.graph_backend,
                [](int) { return std::make_unique<DecayProtocol>(); }, rate,
                horizon, cell_seed, static_cast<std::uint64_t>(t), rng);
          });

      // Pool latencies across trials: the distribution is the deliverable.
      std::vector<double> latencies;
      std::uint64_t delivered = 0, enqueued = 0, max_queue = 0;
      for (const StreamMetrics& m : trials) {
        delivered += m.delivered;
        enqueued += m.enqueued;
        max_queue = std::max(max_queue, m.max_waiting);
        for (const std::uint32_t l : m.latencies)
          latencies.push_back(static_cast<double>(l));
      }
      // Zero deliveries can only happen on degenerate λ/horizon overrides;
      // report zeros rather than asserting.
      const Summary s = latencies.empty() ? Summary{} : summarize(latencies);
      const double ratio =
          enqueued == 0 ? 1.0
                        : static_cast<double>(delivered) /
                              static_cast<double>(enqueued);
      result.table.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(ln_n * ln_n, 1)
          .cell(rate, 6)
          .cell(rate / bound, 3)
          .cell(delivered)
          .cell(ratio, 4)
          .cell(s.mean, 1)
          .cell(s.median, 1)
          .cell(s.p95, 1)
          .cell(s.max, 0)
          .cell(max_queue)
          .cell(static_cast<std::uint64_t>(trials.size()));
    }
  }

  result.note(
      "latency = completion - arrival in wall rounds (queueing wait "
      "included); the floor is pipeline depth (" +
      std::to_string(kPipelineDepth) +
      ") x decay's per-broadcast rounds, and the p95 stretches ahead of the "
      "mean as lambda approaches E16's stability knee.");
  result.note(
      "delivery_ratio < 1 counts messages still queued or in flight at the "
      "horizon, not losses — conservation is exact (StreamConservation "
      "test).");
  return result;
}

}  // namespace radio
