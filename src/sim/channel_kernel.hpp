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
// Three folds fill the same accumulators:
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
//   * fold_pull — the listener side: per uninformed listener, its own
//     adjacency list against the transmitter bitmap, stopping at the second
//     transmitting neighbor. At most Σ deg(w) touches over the uninformed
//     w, on any GraphBackend, and it classifies ONLY those listeners, so it
//     serves consumers that read nothing but unique & ~informed.
//
// read_out() then walks the dirty words in ascending order, hands each
// consumer the word's collided and unique-listener masks, and clears the
// scratch behind it: no per-round sort, no O(n) scan on sparse rounds.
//
// Cost model (fold): fold_lists does Σ deg(t) touches of a few random word
// writes each; fold_rows moves (|T| + 4)·⌈n/64⌉ sequential words
// (dense_round_pays); fold_pull, when the consumer offers it, at most the
// uninformed listeners' Σ deg. All folds are exact — identical masks on
// every listener they classify, hence identical Outcomes, delivered sets
// and observations — so the choice is purely a performance decision and
// determinism is preserved regardless of which fold runs.
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
  kPull = 2,    ///< per-uninformed-listener adjacency-list scan
};

/// Σ deg(t) over the transmitter set — the sparse path's exact work measure
/// — or, once the partial sum exceeds `cap`, that partial sum: enough for a
/// cost model that only compares it with costs up to `cap`.
template <GraphBackend G>
EdgeCount sum_transmitter_degrees(const G& g,
                                  std::span<const NodeId> transmitters,
                                  EdgeCount cap = ~EdgeCount{0}) {
  EdgeCount sum = 0;
  for (NodeId t : transmitters) {
    sum += g.degree(t);
    if (sum > cap) break;
  }
  return sum;
}

/// fold_rows' cost in list-fold touches: it moves roughly
/// (num_tx + 4)·⌈n/64⌉ words (accumulation plus the classification sweeps),
/// each priced at kTouchesPerBitmapWord random neighbor touches (graph.hpp,
/// which generate_gnp_bitmap reads too). Unbounded when nobody transmits or
/// the bitmap would not fit.
inline EdgeCount row_fold_touches(NodeId n, std::size_t num_tx) noexcept {
  if (num_tx == 0 || !bitmap_fits(n)) return ~EdgeCount{0};
  const auto wpr = static_cast<EdgeCount>((static_cast<std::size_t>(n) + 63) / 64);
  return kTouchesPerBitmapWord * (static_cast<EdgeCount>(num_tx) + 4) * wpr;
}

/// True when the word-parallel kernel is expected to beat the list fold,
/// whose work is `sum_deg` = Σ deg(t).
inline bool dense_round_pays(NodeId n, std::size_t num_tx,
                             EdgeCount sum_deg) noexcept {
  return sum_deg > row_fold_touches(n, num_tx);
}

/// A consumer's offer to take the pull fold: its informed set, whose
/// complement are the listeners fold_pull classifies, and Σ deg over that
/// complement. Only consumers that read nothing but unique & ~informed may
/// offer it.
struct PullListeners {
  const Bitset* informed = nullptr;  ///< null: push folds only
  EdgeCount degree_sum = 0;
};

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

  /// Classifies every listener outside `informed` by scanning its own
  /// adjacency list against the round's transmitter bits (set by
  /// mark_transmitters), stopping at its second transmitting neighbor.
  /// Listeners in `informed` read out as silent, and sender() is not
  /// available afterwards.
  template <GraphBackend G>
  void fold_pull(const G& g, const Bitset& informed) {
    RADIO_EXPECTS(g.num_nodes() == once_.size());
    RADIO_EXPECTS(informed.size() == once_.size());
    rows_ = false;
    const std::uint64_t* known = informed.words().data();
    const std::uint64_t* tx = tx_.words().data();
    std::uint64_t* once = once_.words().data();
    std::uint64_t* twice = twice_.words().data();
    std::uint64_t* dirty = dirty_.words().data();
    const std::size_t words = once_.words().size();
    const std::size_t tail = once_.size() & 63;
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t listening = ~(known[wi] | tx[wi]);
      if (tail != 0 && wi + 1 == words)
        listening &= (std::uint64_t{1} << tail) - 1;
      std::uint64_t heard = 0;
      std::uint64_t jammed = 0;
      for_each_set_bit(listening, wi * 64, [&](std::size_t w) {
        unsigned hits = 0;
        for (NodeId v : g.neighbors(static_cast<NodeId>(w))) {
          hits += static_cast<unsigned>((tx[v >> 6] >> (v & 63)) & 1);
          if (hits == 2) break;
        }
        const std::uint64_t bit = std::uint64_t{1} << (w & 63);
        if (hits != 0) heard |= bit;
        if (hits == 2) jammed |= bit;
      });
      if (heard == 0) continue;
      once[wi] = heard;
      twice[wi] = jammed;
      dirty[wi >> 6] |= std::uint64_t{1} << (wi & 63);
    }
  }

  /// The cost model, and the one place a round's fold is chosen: the
  /// cheapest of fold_lists (Σ deg(t) touches), fold_rows (when the backend
  /// has a bitmap: row_fold_touches) and, when the consumer offers its
  /// uninformed listeners, fold_pull (at most their Σ deg touches). Returns
  /// the path taken.
  template <GraphBackend G>
  RoundPath fold(const G& g, std::span<const NodeId> transmitters,
                 std::span<NodeId> writers = {}, PullListeners pull = {}) {
    EdgeCount rows = ~EdgeCount{0};
    if constexpr (requires { g.adjacency_row(NodeId{0}); })
      rows = row_fold_touches(g.num_nodes(), transmitters.size());
    // The list fold's cost is only ever compared with the pull and row
    // costs, so its sum may stop above both.
    EdgeCount cap = rows == ~EdgeCount{0} ? 0 : rows;
    if (pull.informed != nullptr && pull.degree_sum > cap)
      cap = pull.degree_sum;
    const EdgeCount list = sum_transmitter_degrees(g, transmitters, cap);
    if (pull.informed != nullptr && pull.degree_sum < list &&
        pull.degree_sum < rows) {
      fold_pull(g, *pull.informed);
      return RoundPath::kPull;
    }
    if constexpr (requires { g.adjacency_row(NodeId{0}); }) {
      if (list > rows) {
        fold_rows(g, transmitters);
        return RoundPath::kDense;
      }
    }
    fold_lists(g, transmitters, writers);
    return RoundPath::kSparse;
  }

  /// The unique transmitting neighbor of exactly-once listener w in the
  /// last fold: its recorded writer after fold_lists (which must have been
  /// given `writers`), a row scan after fold_rows; none after fold_pull.
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
