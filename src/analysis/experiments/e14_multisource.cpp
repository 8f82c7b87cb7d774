// E14 — multi-source broadcast (extension): the same alert injected at k
// nodes simultaneously (k sirens, one message). Expected shape: the
// diameter term of the round count shrinks like the distance to the nearest
// source (ln(n/k)/ln d of the pipeline phase), while the ln-d-flavoured
// collision term is irreducible — so returns diminish quickly in k, and the
// paper's single-source bound is within a constant of the k-source time for
// any k.
//
// Protocol choice: the ALL-INFORMED-TAIL variant of Theorem 7. The strict
// paper tail (only nodes informed by round D transmit selectively) is
// calibrated to single-source layer growth d^i; with k sources the informed
// set after round D is k overlapping balls, and excluding later learners
// strands pockets between them (measured: k = 4 completed only 12/16 within
// budget under the strict tail). The variant isolates the source-count
// effect we actually want to measure.
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {
namespace {

std::vector<NodeId> pick_distinct_sources(NodeId n, std::size_t k, Rng& rng) {
  std::vector<NodeId> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  return ids;
}

}  // namespace

ExperimentResult run_e14_multisource(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E14");
  result.table = Table({"n", "d", "k", "rounds_mean", "rounds_p95",
                        "vs k=1", "completed", "trials"});

  const NodeId n = config.quick ? (1 << 12) : (1 << 14);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);
  const double d = ln_n * ln_n;
  const GnpParams params = GnpParams::with_degree(n, d);
  const auto budget = static_cast<std::uint32_t>(80.0 * ln_n);

  const std::size_t ks[] = {1, 2, 4, 16, 64, 256};
  double baseline = 0.0;
  for (std::size_t k : ks) {
    struct Trial {
      double rounds = 0;
      bool completed = false;
    };
    const auto trials = run_trials<Trial>(
        config.trials, derive_row_seed(config.seed, stream_tags::kE14Multisource, k),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const std::vector<NodeId> sources =
              pick_distinct_sources(instance.graph.num_nodes(), k, rng);
          BroadcastSession session(instance.graph, sources);
          DistributedOptions options;
          options.tail_includes_late_informed = true;
          ElsasserGasieniecBroadcast protocol(options);
          const BroadcastRun run = run_protocol(
              protocol, context_for(instance), session, rng, budget);
          return Trial{static_cast<double>(run.rounds), run.completed};
        });
    std::vector<double> rounds;
    int completed = 0;
    for (const Trial& t : trials) {
      rounds.push_back(t.rounds);
      completed += t.completed ? 1 : 0;
    }
    const Summary s = summarize(rounds);
    if (k == 1) baseline = s.mean;
    result.table.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(d, 1)
        .cell(static_cast<std::uint64_t>(k))
        .cell(s.mean, 2)
        .cell(s.p95, 1)
        .cell(baseline > 0.0 ? s.mean / baseline : 1.0, 3)
        .cell(std::to_string(completed) + "/" + std::to_string(trials.size()))
        .cell(static_cast<std::uint64_t>(trials.size()));
  }

  result.note(
      "shape check: rounds decrease mildly and saturate — extra sources "
      "shave the pipeline (diameter) term only; the collision-lottery term "
      "is irreducible, so the single-source Theta(ln n) bound is tight up "
      "to constants for every k.");
  return result;
}

}  // namespace radio
