#include "sim/batch/batch_engine.hpp"

#include <array>

#include "util/assert.hpp"

namespace radio {
namespace {

/// 64 lane counters, bit-sliced: plane k holds bit k of every lane's count,
/// so add() counts one event in every lane of a mask with a ripple carry
/// through the low planes, not one memory increment per lane. A count never
/// exceeds one round's listeners, fewer than 2³², so 32 planes hold it.
class LaneTally {
 public:
  void add(std::uint64_t lanes) noexcept {
    std::uint32_t k = 0;
    for (; lanes != 0; ++k) {
      const std::uint64_t carry = planes_[k] & lanes;
      planes_[k] ^= lanes;
      lanes = carry;
    }
    if (k > height_) height_ = k;
  }

  std::uint32_t count(std::uint32_t lane) const noexcept {
    std::uint32_t total = 0;
    for (std::uint32_t k = 0; k < height_; ++k)
      total |= static_cast<std::uint32_t>((planes_[k] >> lane) & 1) << k;
    return total;
  }

 private:
  std::array<std::uint64_t, 32> planes_{};
  std::uint32_t height_ = 0;  ///< planes at and above it are all zero
};

}  // namespace

BatchEngine::BatchEngine(const Graph& g, std::uint32_t lanes)
    : graph_(&g), lane_count_(lanes) {
  RADIO_EXPECTS(lanes >= 1 && lanes <= kMaxBatchLanes);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  informed_p_.assign(n, 0);
  once_.assign(n, 0);
  twice_.assign(n, 0);
  tx_.assign(n, 0);
  informed_mirror_.resize(lanes);
  for (auto& m : informed_mirror_) m = Bitset(g.num_nodes());
  informed_round_.assign(lanes, std::vector<std::uint32_t>(n, kUnreachable));
  informed_count_.assign(lanes, 0);
  round_.assign(lanes, 0);
  outcome_.assign(lanes, LaneOutcome{});
  tx_count_.assign(lanes, 0);
}

void BatchEngine::open_lane(std::uint32_t lane, NodeId source) {
  RADIO_EXPECTS(lane < lane_count_);
  RADIO_EXPECTS(source < graph_->num_nodes());
  RADIO_EXPECTS(tx_count_[lane] == 0);  // no transmitters pending
  const std::uint64_t mask = std::uint64_t{1} << lane;
  // Clear the lane's previous informed bits via its mirror (touches only the
  // nodes that were informed, not all n words).
  Bitset& mirror = informed_mirror_[lane];
  std::vector<std::uint32_t>& rounds = informed_round_[lane];
  if (informed_count_[lane] > 0) {
    const std::span<const std::uint64_t> words = mirror.words();
    for (std::size_t wi = 0; wi < words.size(); ++wi)
      for_each_set_bit(words[wi], wi * 64, [&](std::size_t v) {
        informed_p_[v] &= ~mask;
        rounds[v] = kUnreachable;
      });
    mirror.clear_all();
  }
  informed_p_[source] |= mask;
  mirror.set(source);
  rounds[source] = 0;
  informed_count_[lane] = 1;
  round_[lane] = 0;
  outcome_[lane] = LaneOutcome{};
}

void BatchEngine::add_transmitters(std::uint32_t lane,
                                   std::span<const NodeId> vs) {
  RADIO_EXPECTS(lane < lane_count_);
  const std::uint64_t mask = std::uint64_t{1} << lane;
  const Bitset& mirror = informed_mirror_[lane];
  std::uint64_t all_informed = all_tx_informed_;
  for (const NodeId v : vs) {
    RADIO_EXPECTS(v < graph_->num_nodes());
    std::uint64_t& txw = tx_[v];
    RADIO_EXPECTS((txw & mask) == 0);  // duplicates are caller bugs
    if (txw == 0) tx_nodes_.push_back(v);
    txw |= mask;
    // An uninformed transmitter jams but can deliver nothing: drop the lane
    // from the fast "every sender is informed" classification mask.
    if (!mirror.test(v)) all_informed &= ~mask;
  }
  all_tx_informed_ = all_informed;
  tx_count_[lane] += static_cast<std::uint32_t>(vs.size());
}

void BatchEngine::step(std::span<const std::uint32_t> active) {
  for (std::uint32_t lane : active) {
    RADIO_EXPECTS(lane < lane_count_);
    outcome_[lane] = LaneOutcome{tx_count_[lane], 0, 0, 0};
    ++round_[lane];
  }

  // Fold every transmitter's neighborhood into the hit counters; one pass
  // over the shared adjacency serves all lanes at once. A transmitter's lane
  // word is never zero, so a zero once_ word marks a listener's first hit.
  for (NodeId u : tx_nodes_) {
    const std::uint64_t txu = tx_[u];
    for (NodeId w : graph_->neighbors(u)) {
      const std::uint64_t o = once_[w];
      if (o == 0) touched_.push_back(w);
      twice_[w] |= o & txu;
      once_[w] = o | txu;
    }
  }

  // Classify every hit listener, all lanes at once.
  LaneTally collisions;
  LaneTally redundant;
  for (NodeId w : touched_) {
    const std::uint64_t listeners = ~tx_[w];  // transmitters never receive
    const std::uint64_t colliding = twice_[w] & listeners;
    if (colliding != 0) collisions.add(colliding);
    const std::uint64_t unique = once_[w] & ~twice_[w] & listeners;
    if (unique == 0) continue;
    // Lanes whose transmitters are all informed deliver without resolving
    // the sender; the rest need the sender's informed bit.
    std::uint64_t message = unique & all_tx_informed_;
    std::uint64_t resolve = unique & ~all_tx_informed_;
    if (resolve != 0) {
      for (NodeId u : graph_->neighbors(w)) {
        const std::uint64_t hit = resolve & tx_[u];
        if (hit == 0) continue;
        // u is THE transmitting neighbor in the lanes of `hit`; informed
        // bits of a transmitter cannot change mid-step, so this reads the
        // pre-round value.
        message |= hit & informed_p_[u];
        resolve &= ~hit;
        if (resolve == 0) break;
      }
    }
    if (message == 0) continue;
    std::uint64_t& infw = informed_p_[w];
    const std::uint64_t heard_again = message & infw;
    if (heard_again != 0) redundant.add(heard_again);
    const std::uint64_t fresh = message & ~infw;
    if (fresh != 0) {
      infw |= fresh;
      for_each_set_bit(fresh, 0, [&](std::size_t lane) {
        informed_mirror_[lane].set(w);
        informed_round_[lane][w] = round_[lane];
        ++informed_count_[lane];
        ++outcome_[lane].newly_informed;
      });
    }
  }

  for (std::uint32_t lane : active) {
    outcome_[lane].collisions = collisions.count(lane);
    outcome_[lane].redundant = redundant.count(lane);
  }

  // Reset scratch via the round's node lists (never O(n)).
  for (NodeId w : touched_) {
    once_[w] = 0;
    twice_[w] = 0;
  }
  touched_.clear();
  for (NodeId u : tx_nodes_) tx_[u] = 0;
  tx_nodes_.clear();
  for (std::uint32_t lane : active) tx_count_[lane] = 0;
  all_tx_informed_ = ~std::uint64_t{0};
}

}  // namespace radio
