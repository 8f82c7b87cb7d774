// E5 — Lemma 3: BFS layers of G(n,p) are near-trees.
//
// Per layer i the lemma predicts (w.h.p.):
//   * |T_i(u)| ≈ d^i until the layers saturate at Θ(n);
//   * only O(|T_i|/d²) nodes of T_i have more than one neighbor in T_{i-1}
//     (multi-parent nodes — the collision hazard for the parity pipeline);
//   * intra-layer edges are rare (O(|T_i|/d³)·|T_i| in the small layers);
//   * siblings group under a common parent in groups of size O(d).
// The driver measures all four on fresh instances and reports the bound
// ratios (measured / predicted scale); bounded ratios reproduce the lemma.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "core/layer_probe.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {

ExperimentResult run_e5_layer_structure(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E5");
  result.table = Table({"regime", "layer", "size_mean", "d^i", "size/d^i",
                        "intra_edges", "multi_parent_frac", "1/d^2",
                        "sibling_max", "d"});

  const NodeId n = config.quick ? (1 << 14) : (1 << 16);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);

  const struct {
    const char* name;
    double d;
  } regimes[] = {{"d=2ln n", 2.0 * ln_n}, {"d=ln^2 n", ln_n * ln_n}};

  for (const auto& regime : regimes) {
    const GnpParams params = GnpParams::with_degree(n, regime.d);

    // Per-trial probes aggregated per layer index.
    struct PerLayer {
      std::vector<double> size, intra, multi_frac, sibling;
    };
    std::map<std::uint32_t, PerLayer> agg;

    const auto probes = run_trials<std::vector<LayerProbeRow>>(
        config.trials,
        derive_row_seed(config.seed, stream_tags::kE5LayerStructure, stable_row_tag(regime.name)),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const NodeId source = pick_source(instance.graph, rng);
          const LayerDecomposition layers = bfs_layers(instance.graph, source);
          return probe_layers(instance.graph, layers,
                              instance.params.expected_degree());
        });
    for (const auto& rows : probes) {
      for (const LayerProbeRow& row : rows) {
        PerLayer& bucket = agg[row.layer];
        bucket.size.push_back(static_cast<double>(row.size));
        bucket.intra.push_back(static_cast<double>(row.intra_layer_edges));
        bucket.multi_frac.push_back(row.multi_parent_fraction);
        bucket.sibling.push_back(
            static_cast<double>(row.largest_sibling_group));
      }
    }

    for (const auto& [layer, bucket] : agg) {
      const double predicted =
          std::min(nd, std::pow(regime.d, static_cast<double>(layer)));
      result.table.row()
          .cell(regime.name)
          .cell(static_cast<std::uint64_t>(layer))
          .cell(mean(bucket.size), 1)
          .cell(predicted, 1)
          .cell(mean(bucket.size) / predicted, 3)
          .cell(mean(bucket.intra), 2)
          .cell(mean(bucket.multi_frac), 5)
          .cell(1.0 / (regime.d * regime.d), 5)
          .cell(quantile(bucket.sibling, 0.95), 1)
          .cell(regime.d, 1);
    }
  }

  result.note(
      "lemma checks: size/d^i stays O(1) until saturation; multi_parent_frac "
      "on pre-saturation layers is within a constant of 1/d^2; intra-layer "
      "edges in small layers are O(1); sibling groups are O(d).");
  return result;
}

}  // namespace radio
