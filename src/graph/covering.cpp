#include "graph/covering.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace radio {

Bitset make_membership(NodeId num_nodes, std::span<const NodeId> nodes) {
  Bitset b(num_nodes);
  for (NodeId v : nodes) {
    RADIO_EXPECTS(v < num_nodes);
    b.set(v);
  }
  return b;
}

std::vector<std::uint32_t> neighbor_counts(const Graph& g,
                                           std::span<const NodeId> targets,
                                           const Bitset& set) {
  std::vector<std::uint32_t> counts(targets.size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i)
    for (NodeId w : g.neighbors(targets[i]))
      if (set.test(w)) ++counts[i];
  return counts;
}

bool is_independent_matching(const Graph& g,
                             std::span<const MatchPair> pairs) {
  // Endpoint distinctness.
  Bitset seen(g.num_nodes());
  for (const auto& [u, v] : pairs) {
    if (u >= g.num_nodes() || v >= g.num_nodes() || u == v) return false;
    if (!seen.set_if_clear(u)) return false;
    if (!seen.set_if_clear(v)) return false;
  }
  // Matched pairs must be actual edges, and no cross edges may exist. With a
  // membership map pair-side lookup this is O(sum deg) instead of O(|F|^2).
  std::vector<NodeId> mate(g.num_nodes(), kInvalidNode);
  for (const auto& [u, v] : pairs) {
    if (!g.has_edge(u, v)) return false;
    mate[u] = v;
    mate[v] = u;
  }
  Bitset left(g.num_nodes()), right(g.num_nodes());
  for (const auto& [u, v] : pairs) {
    left.set(u);
    right.set(v);
  }
  for (const auto& [u, v] : pairs) {
    for (NodeId w : g.neighbors(u))
      if (right.test(w) && w != v) return false;
    for (NodeId w : g.neighbors(v))
      if (left.test(w) && w != u) return false;
  }
  return true;
}

bool is_covering(const Graph& g, std::span<const NodeId> cover,
                 std::span<const NodeId> y) {
  const Bitset member = make_membership(g.num_nodes(), cover);
  for (NodeId target : y) {
    bool covered = false;
    for (NodeId w : g.neighbors(target))
      if (member.test(w)) {
        covered = true;
        break;
      }
    if (!covered) return false;
  }
  return true;
}

bool is_minimal_covering(const Graph& g, std::span<const NodeId> cover,
                         std::span<const NodeId> y) {
  if (!is_covering(g, cover, y)) return false;
  // x is redundant iff every y it covers has another cover neighbor; x is
  // essential iff it covers some y uniquely.
  const Bitset member = make_membership(g.num_nodes(), cover);
  const std::vector<std::uint32_t> counts = neighbor_counts(g, y, member);
  Bitset essential(g.num_nodes());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (counts[i] == 1) {
      for (NodeId w : g.neighbors(y[i]))
        if (member.test(w)) {
          essential.set(w);
          break;
        }
    }
  }
  for (NodeId x : cover)
    if (!essential.test(x)) return false;
  return true;
}

bool is_independent_covering(const Graph& g, std::span<const NodeId> cover,
                             std::span<const NodeId> y) {
  const Bitset member = make_membership(g.num_nodes(), cover);
  for (NodeId target : y) {
    std::uint32_t hits = 0;
    for (NodeId w : g.neighbors(target)) {
      if (member.test(w) && ++hits > 1) return false;
    }
    if (hits != 1) return false;
  }
  return true;
}

std::vector<NodeId> greedy_minimal_cover(const Graph& g,
                                         std::span<const NodeId> x,
                                         std::span<const NodeId> y) {
  const Bitset x_member = make_membership(g.num_nodes(), x);
  Bitset uncovered = make_membership(g.num_nodes(), y);
  std::size_t remaining = y.size();

  // Gain of each candidate = number of currently uncovered targets adjacent
  // to it. Classic greedy set cover with lazy gain refresh.
  std::vector<std::pair<std::uint32_t, NodeId>> heap;  // (stale gain, x)
  heap.reserve(x.size());
  for (NodeId cand : x) {
    std::uint32_t gain = 0;
    for (NodeId w : g.neighbors(cand))
      if (uncovered.test(w)) ++gain;
    if (gain > 0) heap.emplace_back(gain, cand);
  }
  std::make_heap(heap.begin(), heap.end());

  std::vector<NodeId> cover;
  while (remaining > 0) {
    NodeId chosen = kInvalidNode;
    while (!heap.empty()) {
      auto [stale_gain, cand] = heap.front();
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      std::uint32_t gain = 0;
      for (NodeId w : g.neighbors(cand))
        if (uncovered.test(w)) ++gain;
      if (gain == 0) continue;
      if (!heap.empty() && gain < heap.front().first) {
        // Stale entry: refresh and reinsert.
        heap.emplace_back(gain, cand);
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
      chosen = cand;
      break;
    }
    if (chosen == kInvalidNode) return {};  // some target has no X neighbor
    cover.push_back(chosen);
    for (NodeId w : g.neighbors(chosen)) {
      if (uncovered.test(w)) {
        uncovered.reset(w);
        --remaining;
      }
    }
  }

  // Minimality prune: drop members whose targets are all covered elsewhere.
  // Iterate until fixpoint (removals can make other members essential but
  // never redundant, so one reverse pass suffices; we keep the loop honest).
  bool changed = true;
  while (changed) {
    changed = false;
    const Bitset member = make_membership(g.num_nodes(), cover);
    const std::vector<std::uint32_t> counts = neighbor_counts(g, y, member);
    Bitset essential(g.num_nodes());
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (counts[i] == 1) {
        for (NodeId w : g.neighbors(y[i]))
          if (member.test(w)) {
            essential.set(w);
            break;
          }
      }
    }
    for (std::size_t i = 0; i < cover.size(); /* advanced below */) {
      if (!essential.test(cover[i])) {
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));
        changed = true;
        break;  // membership changed; recompute counts
      }
      ++i;
    }
  }
  (void)x_member;
  return cover;
}

std::vector<MatchPair> matching_from_minimal_cover(
    const Graph& g, std::span<const NodeId> cover, std::span<const NodeId> y) {
  RADIO_EXPECTS(is_minimal_covering(g, cover, y));
  const Bitset member = make_membership(g.num_nodes(), cover);
  const Bitset y_member = make_membership(g.num_nodes(), y);
  // Proposition 2: each x in a minimal cover has a target it covers uniquely;
  // pairing every x with such a private target yields an independent
  // matching (a cross edge would contradict uniqueness).
  std::vector<MatchPair> pairs;
  pairs.reserve(cover.size());
  Bitset used_y(g.num_nodes());
  for (NodeId x : cover) {
    NodeId partner = kInvalidNode;
    for (NodeId t : g.neighbors(x)) {
      // t must be a target whose ONLY cover neighbor is x, and not already
      // claimed by another cover member (uniqueness makes claims disjoint,
      // but we defend against duplicate y entries).
      if (!y_member.test(t) || used_y.test(t)) continue;
      std::uint32_t hits = 0;
      for (NodeId w : g.neighbors(t))
        if (member.test(w)) ++hits;
      if (hits == 1) {
        partner = t;
        break;
      }
    }
    RADIO_ENSURES(partner != kInvalidNode);  // guaranteed by minimality
    used_y.set(partner);
    pairs.emplace_back(x, partner);
  }
  return pairs;
}

// The materialized-Graph instantiations of the templated constructions
// (bodies in covering.hpp), compiled once here.
template SampledCover sample_independent_cover<Graph>(const Graph&,
                                                      std::span<const NodeId>,
                                                      std::span<const NodeId>,
                                                      double, Rng&);
template FullMatching private_neighbor_matching<Graph>(const Graph&,
                                                       std::span<const NodeId>,
                                                       std::span<const NodeId>);

}  // namespace radio
