#include "sim/channel_kernel.hpp"

#include <bit>

#include "util/assert.hpp"

namespace radio {

RoundFold::RoundFold(NodeId n)
    : once_(n), twice_(n), dirty_(words_for_bits(n)), tx_(n) {}

void RoundFold::mark_transmitters(std::span<const NodeId> transmitters) {
  for (NodeId t : transmitters) {
    RADIO_EXPECTS(t < tx_.size());
    RADIO_EXPECTS(!tx_.test(t));  // duplicates are caller bugs
    tx_.set(t);
  }
}

void RoundFold::clear_transmitters(
    std::span<const NodeId> transmitters) noexcept {
  for (NodeId t : transmitters) tx_.reset(t);
}

NodeId RoundFold::sender(const Graph& g, NodeId w,
                         std::span<const NodeId> writers) const noexcept {
  if (!rows_) return writers[w];
  // Row scan: the first word of row(w) & transmitting holds the only hit.
  const std::span<const std::uint64_t> row = g.adjacency_row(w);
  const std::span<const std::uint64_t> tx = tx_.words();
  for (std::size_t wi = 0; wi < row.size(); ++wi) {
    const std::uint64_t hit = row[wi] & tx[wi];
    if (hit != 0)
      return static_cast<NodeId>(wi * 64 +
                                 static_cast<std::size_t>(std::countr_zero(hit)));
  }
  RADIO_ENSURES(!"exactly-one-hit listener had no transmitting neighbor");
  return kInvalidNode;
}

void RoundFold::fold_rows(const Graph& g,
                          std::span<const NodeId> transmitters) {
  RADIO_EXPECTS(g.num_nodes() == once_.size());
  rows_ = true;
  const std::span<const std::uint64_t> bitmap = g.adjacency_bitmap();
  const std::size_t wpr = g.bitmap_words_per_row();
  std::uint64_t* once = once_.words().data();
  std::uint64_t* twice = twice_.words().data();
  for (NodeId t : transmitters) {
    const std::uint64_t* row =
        bitmap.data() + static_cast<std::size_t>(t) * wpr;
    accumulate_hits_words(once, twice, row, wpr);
  }
  // Every word may be nonzero now; mark all of them, keeping the dirty
  // index's tail bits clear.
  const std::span<std::uint64_t> dirty = dirty_.words();
  for (std::size_t di = 0; di < dirty.size(); ++di) {
    const std::size_t live = wpr - di * 64;
    dirty[di] = live >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << live) - 1;
  }
}

}  // namespace radio
