// Coverings and matchings between two node sets — Definition 1, Proposition 2
// and Lemma 4 of the paper, made executable.
//
// All functions view the bipartite graph induced by a host graph G between
// two disjoint node sets X and Y (edges of G with one endpoint in each).
// Radio semantics motivate every notion here:
//   * a COVERING X' ⊆ X of Y: every y ∈ Y hears at least one transmitter —
//     necessary but not sufficient (collisions!);
//   * an INDEPENDENT COVERING: every y ∈ Y has EXACTLY one neighbor in X' —
//     one simultaneous transmission round informs all of Y;
//   * an INDEPENDENT MATCHING F: pairs (x, y) with no cross edges — each x
//     is a private informant of its y;
//   * Proposition 2: a MINIMAL covering always yields an independent matching
//     of the same size.
#pragma once

#include <utility>
#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace radio {

/// A matched pair: x ∈ X informs y ∈ Y.
using MatchPair = std::pair<NodeId, NodeId>;

/// Membership bitset over g's nodes for a node list (declared ahead of the
/// templated constructions below, which need it visible at definition).
Bitset make_membership(NodeId num_nodes, std::span<const NodeId> nodes);

// ---------------------------------------------------------------------------
// Verifiers (used by tests and by the E6 experiment as ground truth).
// ---------------------------------------------------------------------------

/// Definition 1: F is an independent matching iff for any two pairs
/// (u,v), (u',v') ∈ F neither (u,v') nor (u',v) is an edge. Also checks that
/// all endpoints are distinct.
bool is_independent_matching(const Graph& g, std::span<const MatchPair> pairs);

/// X' covers Y: every y ∈ Y has at least one neighbor in X'.
bool is_covering(const Graph& g, std::span<const NodeId> cover,
                 std::span<const NodeId> y);

/// X' is a minimal covering of Y: it covers Y and no proper subset does.
bool is_minimal_covering(const Graph& g, std::span<const NodeId> cover,
                         std::span<const NodeId> y);

/// X' is an independent covering of Y: every y ∈ Y has exactly one neighbor
/// in X'.
bool is_independent_covering(const Graph& g, std::span<const NodeId> cover,
                             std::span<const NodeId> y);

// ---------------------------------------------------------------------------
// Constructions.
// ---------------------------------------------------------------------------

/// Greedy covering of Y from candidates X, pruned to minimality: repeatedly
/// picks the candidate covering the most uncovered targets, then removes
/// redundant members. Returns an empty vector iff some y ∈ Y has no neighbor
/// in X at all.
std::vector<NodeId> greedy_minimal_cover(const Graph& g,
                                         std::span<const NodeId> x,
                                         std::span<const NodeId> y);

/// Proposition 2 construction: from a minimal covering, extract an
/// independent matching of size |cover| by pairing each cover member with a
/// target it covers uniquely. Requires `cover` to be a minimal covering of y.
std::vector<MatchPair> matching_from_minimal_cover(
    const Graph& g, std::span<const NodeId> cover, std::span<const NodeId> y);

/// Lemma 4 (first statement) construction: sample S ⊆ X keeping each member
/// with probability `rate`; the targets with exactly one neighbor in S are
/// independently covered. Returns both the sample and the covered targets.
struct SampledCover {
  std::vector<NodeId> sample;   ///< S ⊆ X
  std::vector<NodeId> covered;  ///< y ∈ Y with exactly one neighbor in S
};
/// Templated on GraphBackend: the centralized builder's mop-up runs this on
/// both the materialized Graph and the on-demand ImplicitGnp sampler. One
/// bernoulli(rate) draw per candidate, in x order, regardless of backend.
template <GraphBackend G>
SampledCover sample_independent_cover(const G& g, std::span<const NodeId> x,
                                      std::span<const NodeId> y, double rate,
                                      Rng& rng) {
  RADIO_EXPECTS(rate >= 0.0 && rate <= 1.0);
  SampledCover out;
  Bitset sample_member(g.num_nodes());
  for (NodeId cand : x) {
    if (rng.bernoulli(rate)) {
      out.sample.push_back(cand);
      sample_member.set(cand);
    }
  }
  for (NodeId target : y) {
    std::uint32_t hits = 0;
    for (NodeId w : g.neighbors(target)) {
      if (sample_member.test(w) && ++hits > 1) break;
    }
    if (hits == 1) out.covered.push_back(target);
  }
  return out;
}

/// Lemma 4 (second statement) construction: an independent matching that
/// matches EVERY y ∈ Y, built by giving each y a private neighbor — an
/// x ∈ X adjacent to y and to no other member of Y, never reused. Succeeds
/// w.h.p. when |X|/|Y| = Ω(d²); returns nullopt-like empty result (matched
/// flag false) if some y has no private neighbor available.
struct FullMatching {
  bool complete = false;
  std::vector<MatchPair> pairs;  ///< one per y when complete
};
/// Templated on GraphBackend (used by the builder's phase-3 mop-up on every
/// backend; deterministic, draws nothing).
template <GraphBackend G>
FullMatching private_neighbor_matching(const G& g, std::span<const NodeId> x,
                                       std::span<const NodeId> y) {
  const Bitset x_member = make_membership(g.num_nodes(), x);
  const Bitset y_member = make_membership(g.num_nodes(), y);
  // x is a private neighbor candidate iff it has exactly one neighbor in Y.
  // Each y then claims one unused private candidate.
  FullMatching out;
  Bitset used_x(g.num_nodes());
  out.pairs.reserve(y.size());
  for (NodeId target : y) {
    NodeId informant = kInvalidNode;
    for (NodeId w : g.neighbors(target)) {
      if (!x_member.test(w) || used_x.test(w)) continue;
      std::uint32_t y_neighbors = 0;
      for (NodeId z : g.neighbors(w))
        if (y_member.test(z) && ++y_neighbors > 1) break;
      if (y_neighbors == 1) {
        informant = w;
        break;
      }
    }
    if (informant == kInvalidNode) {
      out.complete = false;
      return out;
    }
    used_x.set(informant);
    out.pairs.emplace_back(informant, target);
  }
  out.complete = true;
  return out;
}

// ---------------------------------------------------------------------------
// Helpers shared with the simulator.
// ---------------------------------------------------------------------------

/// For every y in `targets`, counts neighbors inside `set` (given as a
/// membership bitset); returns counts aligned with `targets`.
std::vector<std::uint32_t> neighbor_counts(const Graph& g,
                                           std::span<const NodeId> targets,
                                           const Bitset& set);

}  // namespace radio
