// E6 — Lemma 4 and Proposition 2: coverings and matchings between random
// sets, the machinery behind Theorem 5's selective and mop-up phases.
//
// Scenarios on G(n,p) with disjoint random X, Y:
//   (a) Lemma 4 statement 1: sampling X at rate 1/d independently covers a
//       constant fraction of Y — measured as covered/|Y| across |Y| scales;
//   (b) Lemma 4 statement 2: when |X|/|Y| = Ω(d²) a full independent
//       matching (private informant per y) exists — measured success rate;
//   (c) Proposition 2: a greedy minimal covering of Y yields an independent
//       matching of exactly its size — verified structurally.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trial_runner.hpp"
#include "analysis/workload.hpp"
#include "graph/covering.hpp"
#include "util/stats.hpp"
#include "util/stream_tags.hpp"

namespace radio {
namespace {

/// Random disjoint (X, Y) with the requested sizes.
struct Split {
  std::vector<NodeId> x, y;
};
Split random_split(NodeId n, std::size_t x_size, std::size_t y_size,
                   Rng& rng) {
  std::vector<NodeId> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;
  for (std::size_t i = 0; i < x_size + y_size && i < ids.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(ids.size() - i));
    std::swap(ids[i], ids[j]);
  }
  Split split;
  split.x.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(x_size));
  split.y.assign(ids.begin() + static_cast<std::ptrdiff_t>(x_size),
                 ids.begin() + static_cast<std::ptrdiff_t>(x_size + y_size));
  return split;
}

}  // namespace

ExperimentResult run_e6_covering_matching(const ExperimentConfig& config) {
  ExperimentResult result = ExperimentRegistry::new_result("E6");
  result.table = Table({"scenario", "|X|", "|Y|", "trials", "metric", "value",
                        "paper prediction"});

  const NodeId n = config.quick ? (1 << 13) : (1 << 15);
  const double nd = static_cast<double>(n);
  const double ln_n = std::log(nd);
  const double d = ln_n * ln_n;
  const GnpParams params = GnpParams::with_degree(n, d);

  const auto x_size = static_cast<std::size_t>(0.6 * nd);

  // ---- (a) sampled independent cover at rate 1/d, across |Y| scales.
  const std::size_t y_sizes[] = {
      static_cast<std::size_t>(std::max(4.0, nd / (d * d))),
      static_cast<std::size_t>(nd / d),
      static_cast<std::size_t>(0.3 * nd)};
  for (std::size_t y_size : y_sizes) {
    const auto fractions = run_trials_double(
        config.trials, derive_row_seed(config.seed, stream_tags::kE6CoveringMatching,
                        stream_tags::kE6RowSampledCover, y_size),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const Split split =
              random_split(instance.graph.num_nodes(), x_size, y_size, rng);
          const SampledCover cover = sample_independent_cover(
              instance.graph, split.x, split.y, 1.0 / d, rng);
          return static_cast<double>(cover.covered.size()) /
                 static_cast<double>(split.y.size());
        });
    const Summary s = summarize(fractions);
    result.table.row()
        .cell("L4.1 sampled cover @ rate 1/d")
        .cell(static_cast<std::uint64_t>(x_size))
        .cell(static_cast<std::uint64_t>(y_size))
        .cell(static_cast<std::uint64_t>(fractions.size()))
        .cell("covered/|Y| mean (min)")
        .cell(format_double(s.mean, 3) + " (" + format_double(s.min, 3) + ")")
        .cell("Omega(1) fraction");
  }

  // ---- (b) full private matching when |X|/|Y| = Omega(d^2).
  for (double scale : {0.5, 1.0, 4.0}) {
    const auto y_size = static_cast<std::size_t>(
        std::max(2.0, static_cast<double>(x_size) / (scale * d * d)));
    const auto successes = run_trials_double(
        config.trials,
        derive_row_seed(config.seed, stream_tags::kE6CoveringMatching,
                        stream_tags::kE6RowPrivateMatching,
                        static_cast<std::uint64_t>(scale * 100)),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params, rng);
          const Split split =
              random_split(instance.graph.num_nodes(), x_size, y_size, rng);
          const FullMatching matching =
              private_neighbor_matching(instance.graph, split.x, split.y);
          if (!matching.complete) return 0.0;
          return is_independent_matching(instance.graph, matching.pairs) ? 1.0
                                                                         : 0.0;
        });
    result.table.row()
        .cell("L4.2 private matching, |X|/|Y|=" +
              format_double(scale, 1) + "*d^2")
        .cell(static_cast<std::uint64_t>(x_size))
        .cell(static_cast<std::uint64_t>(y_size))
        .cell(static_cast<std::uint64_t>(successes.size()))
        .cell("complete+verified rate")
        .cell(mean(successes), 3)
        .cell("-> 1 w.h.p.");
  }

  // ---- (c) Proposition 2 on modest instances (greedy minimal cover is the
  // expensive step).
  {
    const NodeId n2 = config.quick ? 1024 : 4096;
    const double d2 = std::log(static_cast<double>(n2)) * 2.5;
    const GnpParams params2 = GnpParams::with_degree(n2, d2);
    const auto y2 = static_cast<std::size_t>(n2 / 8);
    const auto x2 = static_cast<std::size_t>(n2 / 2);
    struct Prop2 {
      double ok = 0.0;
      double cover_size = 0.0;
    };
    const auto outcomes = run_trials<Prop2>(
        config.trials, derive_row_seed(config.seed, stream_tags::kE6CoveringMatching,
                        stream_tags::kE6RowProposition2,
                        stream_tags::kSubRowNone),
        [&](int, Rng& rng) {
          const BroadcastInstance instance =
              make_broadcast_instance(params2, rng);
          const Split split =
              random_split(instance.graph.num_nodes(), x2, y2, rng);
          const std::vector<NodeId> cover =
              greedy_minimal_cover(instance.graph, split.x, split.y);
          Prop2 out;
          if (cover.empty()) return out;  // uncoverable draw
          const std::vector<MatchPair> pairs =
              matching_from_minimal_cover(instance.graph, cover, split.y);
          out.ok = (pairs.size() == cover.size() &&
                    is_independent_matching(instance.graph, pairs))
                       ? 1.0
                       : 0.0;
          out.cover_size = static_cast<double>(cover.size());
          return out;
        });
    std::vector<double> ok, sizes;
    for (const Prop2& o : outcomes) {
      ok.push_back(o.ok);
      sizes.push_back(o.cover_size);
    }
    result.table.row()
        .cell("Prop 2: minimal cover -> matching")
        .cell(static_cast<std::uint64_t>(x2))
        .cell(static_cast<std::uint64_t>(y2))
        .cell(static_cast<std::uint64_t>(outcomes.size()))
        .cell("matching of size |cover| rate")
        .cell(mean(ok), 3)
        .cell("always (deterministic)");
    result.note("Prop 2 mean minimal-cover size: " +
                format_double(mean(sizes), 1) + " (|Y| = " +
                std::to_string(y2) + ").");
  }

  result.note(
      "L4.1 covered fraction concentrates near lambda*e^-lambda with lambda "
      "= |X|/n; L4.2 success flips to 1 once |X|/|Y| clears the d^2 scale; "
      "Prop 2 must hold on every draw.");
  return result;
}

}  // namespace radio
