// The radio channel itself: one synchronous round of the model in §1.1.
//
// Semantics (exactly the paper's): every node either transmits or listens.
// A listening node w RECEIVES iff precisely one of its neighbors transmits;
// if two or more transmit, a collision destroys the round for w; a
// transmitting node never receives. A received transmission delivers the
// broadcast message only if the transmitter actually holds it — uninformed
// transmitters still jam the channel (needed verbatim by Theorem 6's relaxed
// adversary, which lets arbitrary sets transmit).
//
// Execution paths. Every round runs through the one round fold in
// sim/channel_kernel.hpp and one classification over its dirty words; only
// the fold that fills the accumulators differs:
//
//   * SPARSE — fold_lists: per-transmitter adjacency-list touches,
//     O(Σ deg(t) over transmitters t). In rounds where some transmitter is
//     uninformed, each listener's last writer is recorded as its unique
//     sender. Optimal when transmitter neighborhoods are small.
//   * DENSE — fold_rows: (|T| + O(1))·⌈n/64⌉ 64-bit word operations per
//     round against the graph's lazily built adjacency bitmap. Optimal in
//     the dense regime (§3.1 / E8), where Σ deg(t) approaches |T|·n.
//
// A per-round cost model (RoundFold::fold) picks the cheaper fold; tests
// and benches can pin one with force_path(). The engine never takes the
// listener-side pull fold: it counts collisions and redundant receptions
// at informed listeners, which a pull fold does not classify. DETERMINISM CONTRACT: both
// folds produce the same accumulators and the classification walks them in
// ascending word order, so Outcome counters, delivered sets (appended in
// ascending node id order) and observation buffers are identical and path
// choice — like thread count — can never change simulation results; same
// seed ⇒ same results. The oracle suite (tests/property/
// test_engine_reference.cpp) checks both paths against a listener-side
// transcription of §1.1.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel_kernel.hpp"
#include "util/bitset.hpp"

namespace radio {

/// What a node experienced on the channel in one round. The paper's model
/// gives listeners no collision detection — a collision is indistinguishable
/// from silence — so kCollision is only distinguishable from kSilence when
/// the engine runs with observation recording enabled (the collision-
/// detection MODEL EXTENSION used by AdaptiveBackoffProtocol; see
/// protocols/adaptive_backoff.hpp).
enum class ChannelObservation : std::uint8_t {
  kSilence = 0,      ///< listened, no transmitting neighbor
  kMessage = 1,      ///< listened, exactly one transmitting neighbor
  kCollision = 2,    ///< listened, two or more transmitting neighbors
  kTransmitting = 3, ///< was transmitting (hears nothing by definition)
};

class RadioEngine {
 public:
  explicit RadioEngine(const Graph& g);

  /// Enables per-node channel observations (collision-detection extension).
  /// Off by default: the base model must not pay for it.
  void record_observations(bool enabled);

  /// Valid after a step() with recording enabled: one entry per node.
  std::span<const ChannelObservation> last_observations() const noexcept {
    return observations_;
  }

  /// Pins the execution path (differential tests, benches): kSparse or
  /// kDense. Both paths are exact, so this can never change results — only
  /// the round's cost.
  void force_path(RoundPath path) noexcept {
    path_mode_ = path == RoundPath::kDense ? PathMode::kForceDense
                                           : PathMode::kForceSparse;
  }

  /// Which path the most recent step() executed.
  RoundPath last_path() const noexcept { return last_path_; }

  /// Executes one round. `transmitters` must be distinct node ids.
  /// `informed` is the pre-round informed set. Appends every listener that
  /// successfully receives THE MESSAGE this round to `delivered` (uninformed
  /// listeners only — re-deliveries are counted, not appended), in ascending
  /// node id order on both paths.
  struct Outcome {
    std::uint32_t collisions = 0;  ///< listeners jammed by >= 2 transmitters
    std::uint32_t redundant = 0;   ///< informed listeners that heard it again
  };
  Outcome step(std::span<const NodeId> transmitters, const Bitset& informed,
               std::vector<NodeId>& delivered);

  const Graph& graph() const noexcept { return *graph_; }

 private:
  enum class PathMode : std::uint8_t { kAuto, kForceSparse, kForceDense };

  void observe(NodeId v, ChannelObservation what) {
    observations_[v] = what;
    observed_.push_back(v);
  }

  const Graph* graph_;
  RoundFold fold_;
  /// fold_lists' last writer per node, recorded only in rounds where a
  /// transmitter is uninformed.
  std::vector<NodeId> writers_;
  PathMode path_mode_ = PathMode::kAuto;
  RoundPath last_path_ = RoundPath::kSparse;
  bool record_observations_ = false;
  std::vector<ChannelObservation> observations_;
  std::vector<NodeId> observed_;       ///< nodes whose observation needs reset
};

}  // namespace radio
