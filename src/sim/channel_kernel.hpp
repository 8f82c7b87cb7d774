// The round fold: the one implementation of the paper's reception rule
// (§1.1: a listener receives iff exactly one neighbor transmits), shared by
// RadioEngine, GossipSession, LightSession (sim/light_session.hpp) and its
// round preview.
//
// A round folds every transmitter's neighborhood into two accumulator
// bitmaps with the saturating 2-bit counter update
//
//     twice |= once & hit;   once |= hit
//
// after which, for any listener w (not transmitting),
//     twice[w]               ⇔ ≥ 2 transmitting neighbors (collision)
//     once[w] & ~twice[w]    ⇔ exactly 1 transmitting neighbor.
//
// Two folds fill the same accumulators:
//
//   * fold_lists — per transmitter t, per neighbor w in t's adjacency list,
//     the update above on w's word without a branch, plus one bit per
//     touched word in a dirty index. It can also record t as w's last
//     writer: an exactly-once listener has only one writer, so that writer
//     is its unique sender. O(Σ deg(t)) touches, on any GraphBackend.
//   * fold_rows — per transmitter, the update over its whole ⌈n/64⌉-word
//     adjacency bitmap row (Graph::adjacency_row); every word is dirty.
//     Unique senders are recovered per exactly-once listener by scanning
//     row(w) & transmitting — rare in the dense regime, where nearly every
//     listener collides.
//
// read_out() then walks the dirty words in ascending order, hands each
// consumer the word's collided and unique-listener masks, and clears the
// scratch behind it: no per-round sort, no O(n) scan on sparse rounds.
//
// Cost model (dense_round_pays): fold_lists does Σ deg(t) touches of a few
// random word writes each; fold_rows moves (|T| + c)·⌈n/64⌉ sequential
// words. Both folds are exact — identical masks, hence identical Outcomes,
// delivered sets and observations — so the choice is purely a performance
// decision and determinism is preserved regardless of which fold runs.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

/// Which execution path a round took (recorded into RoundStats).
enum class RoundPath : std::uint8_t {
  kSparse = 0,  ///< per-transmitter adjacency-list sweep
  kDense = 1,   ///< word-parallel bitmap kernel
};

/// Σ deg(t) over the transmitter set — the sparse path's exact work measure.
EdgeCount sum_transmitter_degrees(const Graph& g,
                                  std::span<const NodeId> transmitters) noexcept;

/// Cost model: true when the word-parallel kernel is expected to beat the
/// sparse sweep. `sum_deg` is Σ deg(t); the kernel moves roughly
/// (num_tx + 4)·⌈n/64⌉ words (accumulation plus the classification sweeps),
/// each priced at kTouchesPerBitmapWord random neighbor touches (graph.hpp,
/// which generate_gnp_bitmap reads too). Never when the bitmap would not fit.
inline bool dense_round_pays(NodeId n, std::size_t num_tx,
                             EdgeCount sum_deg) noexcept {
  if (num_tx == 0 || !bitmap_fits(n)) return false;
  const auto wpr = static_cast<EdgeCount>((static_cast<std::size_t>(n) + 63) / 64);
  return sum_deg >
         kTouchesPerBitmapWord * (static_cast<EdgeCount>(num_tx) + 4) * wpr;
}

/// The once/twice accumulators, the dirty-word index and the transmitter
/// bitmap of one round. Scratch is sized once and cleared by read_out(), so
/// a round allocates nothing.
class RoundFold {
 public:
  explicit RoundFold(NodeId n);

  /// Sets the round's transmitter bits (bounds- and duplicate-checked), so
  /// read_out() excludes transmitters from the listeners. Consumers whose
  /// transmitters are all informed may skip this and mask with ~informed.
  void mark_transmitters(std::span<const NodeId> transmitters);
  void clear_transmitters(std::span<const NodeId> transmitters) noexcept;

  /// Folds the round over adjacency lists. With `writers` non-empty (one
  /// slot per node), each touch also records t as w's last writer.
  template <GraphBackend G>
  void fold_lists(const G& g, std::span<const NodeId> transmitters,
                  std::span<NodeId> writers = {}) {
    RADIO_EXPECTS(writers.empty() || writers.size() == once_.size());
    rows_ = false;
    if (writers.empty())
      fold_lists_impl<false>(g, transmitters, writers);
    else
      fold_lists_impl<true>(g, transmitters, writers);
  }

  /// Folds the round over Graph's adjacency bitmap rows (building the
  /// graph's bitmap cache on first use).
  void fold_rows(const Graph& g, std::span<const NodeId> transmitters);

  /// fold_rows when the backend has a bitmap and dense_round_pays, else
  /// fold_lists. Returns the path taken.
  template <GraphBackend G>
  RoundPath fold(const G& g, std::span<const NodeId> transmitters,
                 std::span<NodeId> writers = {}) {
    if constexpr (requires { g.adjacency_row(NodeId{0}); }) {
      if (dense_round_pays(g.num_nodes(), transmitters.size(),
                           sum_transmitter_degrees(g, transmitters))) {
        fold_rows(g, transmitters);
        return RoundPath::kDense;
      }
    }
    fold_lists(g, transmitters, writers);
    return RoundPath::kSparse;
  }

  /// The unique transmitting neighbor of exactly-once listener w in the
  /// last fold: its recorded writer after fold_lists (which must have been
  /// given `writers`), a row scan after fold_rows.
  NodeId sender(const Graph& g, NodeId w,
                std::span<const NodeId> writers) const noexcept;

  /// Calls fn(base, collided, unique) for every dirty word in ascending
  /// order, where bit i of each mask is listener base + i: `collided` heard
  /// ≥ 2 transmitters, `unique` exactly one. Clears the accumulators.
  template <class Fn>
  void read_out(Fn&& fn) {
    std::uint64_t* once = once_.words().data();
    std::uint64_t* twice = twice_.words().data();
    const std::uint64_t* tx = tx_.words().data();
    const std::span<std::uint64_t> dirty = dirty_.words();
    for (std::size_t di = 0; di < dirty.size(); ++di) {
      const std::uint64_t touched = dirty[di];
      dirty[di] = 0;
      for_each_set_bit(touched, di * 64, [&](std::size_t wi) {
        const std::uint64_t listening = ~tx[wi];
        fn(wi * 64, twice[wi] & listening,
           andnot(once[wi], twice[wi]) & listening);
        once[wi] = 0;
        twice[wi] = 0;
      });
    }
  }

 private:
  template <bool kRecordWriters, GraphBackend G>
  void fold_lists_impl(const G& g, std::span<const NodeId> transmitters,
                       std::span<NodeId> writers) {
    RADIO_EXPECTS(g.num_nodes() == once_.size());
    std::uint64_t* once = once_.words().data();
    std::uint64_t* twice = twice_.words().data();
    std::uint64_t* dirty = dirty_.words().data();
    for (NodeId t : transmitters) {
      for (NodeId w : g.neighbors(t)) {
        const std::size_t wi = w >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (w & 63);
        twice[wi] |= once[wi] & bit;
        once[wi] |= bit;
        dirty[wi >> 6] |= std::uint64_t{1} << (wi & 63);
        if constexpr (kRecordWriters) writers[w] = t;
      }
    }
  }

  Bitset once_;
  Bitset twice_;
  Bitset dirty_;  ///< one bit per word of once_/twice_ that may be nonzero
  Bitset tx_;
  bool rows_ = false;  ///< last fold was fold_rows
};

}  // namespace radio
