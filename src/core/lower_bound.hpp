// Empirical counterparts of the paper's lower bounds.
//
// Theorem 8 (distributed, Ω(ln n)) observes that a topology-oblivious node
// can condition only on (n, p, t), i.e. the algorithm is a per-round
// transmit-probability sequence q_1, q_2, …. This header holds that
// protocol, the paper's own Theorem-7 schedule written as such a sequence,
// a blind best-of-K search over random sequences, and run_probe, the loop
// every search probe runs on. E7 runs the guided searches of
// core/adversary.hpp for both Theorem 8 and Theorem 6; the blind search
// stays as the baseline the guided one must match or beat at an equal probe
// budget.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/light_session.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"

namespace radio {

// ---------------------------------------------------------------------------
// Theorem 8: oblivious probability-sequence adversary.
// ---------------------------------------------------------------------------

/// A topology-oblivious algorithm: in round t every informed node transmits
/// with probability `probabilities[t-1]` (last entry repeats forever).
class ObliviousSequenceProtocol final : public Protocol {
 public:
  explicit ObliviousSequenceProtocol(std::vector<double> probabilities);

  std::string name() const override { return "oblivious-sequence"; }
  bool is_distributed() const override { return true; }
  void reset(const ProtocolContext&) override {}
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override;

 private:
  std::vector<double> probabilities_;
};

struct ObliviousSearchParams {
  std::uint32_t round_budget = 0;  ///< rounds each candidate may use
  int num_candidates = 64;         ///< random sequences sampled
  int trials_per_candidate = 3;    ///< completion must hold on every trial
};

struct ObliviousSearchOutcome {
  /// Fastest guaranteed completion found (max over that candidate's trials),
  /// or round_budget + 1 when no candidate completed within budget.
  std::uint32_t best_rounds = 0;
  /// Fraction of candidates whose every trial completed within budget.
  double completed_fraction = 0.0;
  /// Candidate index achieving best_rounds (-1 if none).
  int best_candidate = -1;
};

/// The Theorem-7 probability schedule as an explicit oblivious sequence
/// (flood for log n/log d rounds, one catch-up round, then 1/d forever), so
/// search spaces provably contain the paper's own algorithm. Length is at
/// least `budget` rounds.
std::vector<double> theorem7_oblivious_sequence(const ProtocolContext& ctx,
                                                std::uint32_t budget);

/// Samples random per-round probability sequences (log-uniform in [1/n, 1]),
/// always including (a) the Theorem-7 schedule and (b) the constant-1/d
/// sequence, and measures the best completion time on `g`.
ObliviousSearchOutcome search_oblivious_schedules(
    const Graph& g, NodeId source, const ProtocolContext& ctx,
    const ObliviousSearchParams& params, Rng& rng);

/// One search probe: resets `protocol`, then steps a LightSession on `g` from
/// `source` while it is incomplete and under `max_rounds` rounds. That is
/// run_protocol's loop (sim/runner.hpp) without per-round history,
/// observations or sender lookup, so the protocol must transmit only
/// informed nodes (LightSession asserts it every round) and want no
/// observations. Returns the finished session: completion, rounds, informed
/// count and every node's informed round, as run_protocol on a
/// BroadcastSession would leave them for the same stream.
LightSession<Graph> run_probe(Protocol& protocol, const ProtocolContext& ctx,
                              const Graph& g, NodeId source, Rng& rng,
                              std::uint32_t max_rounds);

/// Diameter is an unconditional lower bound on any broadcast; exposed here
/// so experiment tables print it next to adversary outcomes.
std::uint32_t broadcast_diameter_bound(const Graph& g, NodeId source);

}  // namespace radio
