#include "core/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/lower_bound.hpp"
#include "sim/light_session.hpp"
#include "util/assert.hpp"

namespace radio {

FixedSmallSetScheduleProtocol::FixedSmallSetScheduleProtocol(
    SmallSetSchedule schedule)
    : schedule_(std::move(schedule)) {
  for (const SmallRoundSet& set : schedule_) {
    RADIO_EXPECTS(set.size >= 1 && set.size <= 2);
    if (set.size == 2) RADIO_EXPECTS(set.node[0] != set.node[1]);
  }
}

void FixedSmallSetScheduleProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng&,
    std::vector<NodeId>& out) {
  if (round == 0 || round > schedule_.size()) return;
  const SmallRoundSet& set = schedule_[round - 1];
  for (std::uint8_t i = 0; i < set.size; ++i) {
    const NodeId v = set.node[i];
    if (v < session.num_nodes() && session.informed(v))
      out.push_back(v);
  }
}

namespace {

/// Per-round chance that a gene mutates (both policies).
constexpr double kMutationRate = 0.25;

/// Log-probability step of an oblivious gene's local move.
constexpr double kMutationScale = 1.5;

/// Lexicographic candidate fitness, lower is better. `worst_rounds` is the
/// worst trial's completion time with round_budget + 1 standing in for
/// "never completed", and `uninformed` (total nodes left uninformed across
/// the candidate's trials) breaks ties so the search has a gradient even
/// while nothing completes yet.
struct Fitness {
  std::uint32_t worst_rounds = 0;
  std::uint64_t uninformed = 0;
};

bool better(const Fitness& a, const Fitness& b) {
  if (a.worst_rounds != b.worst_rounds) return a.worst_rounds < b.worst_rounds;
  return a.uninformed < b.uninformed;
}

struct Evaluated {
  Fitness fitness;
  /// The deciding probe: the first incomplete trial, else the first trial
  /// attaining the worst completion time. Complete iff every trial was.
  std::optional<LightSession<Graph>> deciding;
};

/// The (1+λ) loop, generic over the genotype. Policy supplies:
///   using Genotype = ...;
///   using Phenotype = ...;  // the Protocol that plays a Genotype, built from it
///   int trials_per_candidate() const;
///   std::vector<Genotype> seeds(Rng&) const;          // first generation
///   Genotype mutate(const Genotype&, Rng&) const;
///   void record(AdversaryCertificate&, const Genotype&) const;
///
/// Determinism: `rng` draws only the probe seed, the seeds and the
/// mutations. Probe u of the whole search, counted over (candidate, trial)
/// in order, draws from Rng::for_stream(probe_seed, u), so the entire
/// trajectory is byte-identical at any thread count.
template <typename Policy>
GuidedSearchOutcome guided_search(const Graph& g, NodeId source,
                                  const ProtocolContext& ctx,
                                  const GuidedSearchParams& params,
                                  const Policy& policy, Rng& rng) {
  RADIO_EXPECTS(params.round_budget > 0);
  RADIO_EXPECTS(params.generations >= 0);
  RADIO_EXPECTS(params.population >= 1);
  RADIO_EXPECTS(source < g.num_nodes());

  using Genotype = typename Policy::Genotype;
  const int tpc = policy.trials_per_candidate();
  const std::uint32_t fail_rounds = params.round_budget + 1;
  const std::uint64_t n = g.num_nodes();

  const std::uint64_t probe_seed = rng();
  std::uint64_t next_stream = 0;
  std::uint64_t candidates_seen = 0;
  std::uint64_t candidates_completed = 0;

  // A probe's completion time, fail_rounds when it never completed.
  const auto rounds_of = [&](const LightSession<Graph>& probe) {
    return probe.complete() ? probe.current_round() : fail_rounds;
  };

  const auto evaluate = [&](const std::vector<Genotype>& candidates) {
    std::vector<Evaluated> evals(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      typename Policy::Phenotype protocol(candidates[c]);
      Evaluated& e = evals[c];
      for (int j = 0; j < tpc; ++j) {
        Rng probe_rng = Rng::for_stream(probe_seed, next_stream++);
        LightSession<Graph> run = run_probe(protocol, ctx, g, source,
                                            probe_rng, params.round_budget);
        e.fitness.uninformed +=
            n - static_cast<std::uint64_t>(run.informed_count());
        if (!e.deciding || rounds_of(run) > rounds_of(*e.deciding))
          e.deciding = std::move(run);
      }
      e.fitness.worst_rounds = rounds_of(*e.deciding);
      ++candidates_seen;
      if (e.deciding->complete()) ++candidates_completed;
    }
    return evals;
  };

  const auto best_of = [](const std::vector<Evaluated>& evals) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < evals.size(); ++i)
      if (better(evals[i].fitness, evals[best].fitness)) best = i;
    return best;
  };

  // Generation 0: the policy's seed candidates compete for incumbency.
  std::vector<Genotype> pool = policy.seeds(rng);
  RADIO_EXPECTS(!pool.empty());
  std::vector<Evaluated> evals = evaluate(pool);
  std::size_t best = best_of(evals);
  Genotype incumbent = std::move(pool[best]);
  Evaluated incumbent_eval = std::move(evals[best]);
  std::uint32_t improvements = 0;

  // (1+λ): adopt a mutant only on STRICT improvement of the worst trial
  // (falling back to the uninformed-count tiebreak), so the incumbent can
  // never drift to an equally-good-looking but luckier schedule.
  for (int gen = 0; gen < params.generations; ++gen) {
    pool.clear();
    for (int m = 0; m < params.population; ++m)
      pool.push_back(policy.mutate(incumbent, rng));
    evals = evaluate(pool);
    best = best_of(evals);
    if (better(evals[best].fitness, incumbent_eval.fitness)) {
      incumbent = std::move(pool[best]);
      incumbent_eval = std::move(evals[best]);
      ++improvements;
    }
  }

  // ---- Certificate: read the witness off the incumbent's deciding probe.
  const LightSession<Graph>& deciding = *incumbent_eval.deciding;
  AdversaryCertificate cert;
  cert.rounds = incumbent_eval.fitness.worst_rounds;
  cert.completed = deciding.complete();
  cert.probes = next_stream;
  cert.improvements = improvements;
  if (cert.completed) {
    // Last node informed == the witness that pinned the completion time.
    const SessionView view = deciding.view();
    cert.witness = source;
    cert.rounds_survived = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (view.informed_round(v) > cert.rounds_survived) {
        cert.rounds_survived = view.informed_round(v);
        cert.witness = v;
      }
    }
  } else {
    cert.witness = deciding.uninformed_nodes().front();
    cert.rounds_survived = params.round_budget;
  }
  policy.record(cert, incumbent);

  GuidedSearchOutcome outcome;
  outcome.best_rounds = cert.rounds;
  outcome.completed_fraction = static_cast<double>(candidates_completed) /
                               static_cast<double>(candidates_seen);
  outcome.certificate = std::move(cert);
  return outcome;
}

// ---------------------------------------------------------------------------
// Theorem 8 policy: oblivious probability sequences, mutated in log space.
// ---------------------------------------------------------------------------

class ObliviousPolicy {
 public:
  using Genotype = std::vector<double>;
  using Phenotype = ObliviousSequenceProtocol;

  ObliviousPolicy(const ProtocolContext& ctx, const GuidedSearchParams& params)
      : ctx_(ctx),
        params_(params),
        log_lo_(std::log(1.0 / std::max(2.0, static_cast<double>(ctx.n)))) {}

  int trials_per_candidate() const {
    return std::max(1, params_.trials_per_candidate);
  }

  std::vector<Genotype> seeds(Rng& rng) const {
    std::vector<Genotype> seeds;
    // The paper's own Theorem-7 schedule: the search space provably contains
    // the upper-bound algorithm, so "best found" can only improve on it.
    seeds.push_back(theorem7_oblivious_sequence(ctx_, params_.round_budget));
    seeds.back().resize(params_.round_budget, seeds.back().back());
    if (seeds.size() < static_cast<std::size_t>(params_.population)) {
      const double d = std::max(2.0, ctx_.expected_degree());
      seeds.emplace_back(params_.round_budget, std::min(1.0, 1.0 / d));
    }
    while (seeds.size() < static_cast<std::size_t>(params_.population)) {
      Genotype probs(params_.round_budget);
      for (double& p : probs) p = random_gene(rng);
      seeds.push_back(std::move(probs));
    }
    return seeds;
  }

  Genotype mutate(const Genotype& parent, Rng& rng) const {
    Genotype child = parent;
    for (double& p : child) {
      if (!rng.bernoulli(kMutationRate)) continue;
      if (rng.bernoulli(0.2)) {
        p = random_gene(rng);  // fresh log-uniform draw: escapes local optima
      } else {
        const double step = kMutationScale * (2.0 * rng.uniform() - 1.0);
        p = std::exp(std::min(0.0, std::max(log_lo_, std::log(p) + step)));
      }
    }
    return child;
  }

  void record(AdversaryCertificate& cert, const Genotype& genes) const {
    cert.oblivious_probs = genes;
  }

 private:
  double random_gene(Rng& rng) const { return std::exp(log_lo_ * rng.uniform()); }

  const ProtocolContext& ctx_;
  const GuidedSearchParams& params_;
  double log_lo_;  ///< log(1/n): genes live in [1/n, 1]
};

// ---------------------------------------------------------------------------
// Theorem 6 policy: explicit small-set schedules, mutated round by round.
// ---------------------------------------------------------------------------

class SmallSetPolicy {
 public:
  using Genotype = SmallSetSchedule;
  using Phenotype = FixedSmallSetScheduleProtocol;

  SmallSetPolicy(const Graph& g, NodeId source,
                 const GuidedSearchParams& params)
      : g_(g), source_(source), params_(params) {}

  // Fixed schedules consume no randomness: one probe decides a candidate.
  int trials_per_candidate() const { return 1; }

  std::vector<Genotype> seeds(Rng& rng) const {
    std::vector<Genotype> seeds;
    seeds.push_back(greedy_schedule());
    while (seeds.size() < static_cast<std::size_t>(params_.population)) {
      Genotype schedule(params_.round_budget);
      for (SmallRoundSet& set : schedule) set = random_set(rng);
      seeds.push_back(std::move(schedule));
    }
    return seeds;
  }

  Genotype mutate(const Genotype& parent, Rng& rng) const {
    Genotype child = parent;
    for (SmallRoundSet& set : child)
      if (rng.bernoulli(kMutationRate)) set = random_set(rng);
    return child;
  }

  void record(AdversaryCertificate& cert, const Genotype& schedule) const {
    cert.small_sets = schedule;
  }

 private:
  /// Deterministic greedy seed: each round the informed node covering the
  /// most uninformed neighbors transmits alone (ties to the lowest id).
  /// Near-optimal on G(n,p) — the search then tries to beat it with 2-sets.
  SmallSetSchedule greedy_schedule() const {
    SmallSetSchedule schedule;
    schedule.reserve(params_.round_budget);
    LightSession<Graph> session(g_, source_);
    NodeId tx[1];
    for (std::uint32_t t = 0;
         t < params_.round_budget && !session.complete(); ++t) {
      NodeId best = source_;
      std::size_t best_gain = 0;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        if (!session.informed(v)) continue;
        std::size_t gain = 0;
        for (NodeId u : g_.neighbors(v)) gain += session.informed(u) ? 0 : 1;
        if (gain > best_gain) {
          best_gain = gain;
          best = v;
        }
      }
      SmallRoundSet set;
      set.node[0] = best;
      schedule.push_back(set);
      tx[0] = best;
      session.step(tx);
    }
    // Pad to the full budget with silent-after-completion singletons so
    // every genotype has round_budget mutable rounds.
    SmallRoundSet pad;
    pad.node[0] = source_;
    schedule.resize(params_.round_budget, pad);
    return schedule;
  }

  SmallRoundSet random_set(Rng& rng) const {
    const NodeId n = g_.num_nodes();
    SmallRoundSet set;
    set.size = (params_.max_set_size >= 2 && n >= 2 && rng.bernoulli(0.5))
                   ? 2
                   : 1;
    set.node[0] = static_cast<NodeId>(rng.uniform_below(n));
    if (set.size == 2) {
      do {
        set.node[1] = static_cast<NodeId>(rng.uniform_below(n));
      } while (set.node[1] == set.node[0]);
    }
    return set;
  }

  const Graph& g_;
  NodeId source_;
  const GuidedSearchParams& params_;
};

}  // namespace

GuidedSearchOutcome guided_oblivious_search(const Graph& g, NodeId source,
                                            const ProtocolContext& ctx,
                                            const GuidedSearchParams& params,
                                            Rng& rng) {
  const ObliviousPolicy policy(ctx, params);
  return guided_search(g, source, ctx, params, policy, rng);
}

GuidedSearchOutcome guided_small_set_search(const Graph& g, NodeId source,
                                            const GuidedSearchParams& params,
                                            Rng& rng) {
  const ProtocolContext ctx{g.num_nodes(), 0.5};  // p unused by fixed schedules
  const SmallSetPolicy policy(g, source, params);
  return guided_search(g, source, ctx, params, policy, rng);
}

}  // namespace radio
