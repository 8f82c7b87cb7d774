// Implicit G(n,p): a GraphBackend that samples neighborhoods on demand
// instead of materializing an edge list up front — the giant-n backend
// (--graph-backend implicit) that pushes centralized-broadcast instances to
// n ≥ 10^7 on one machine.
//
// Edge decomposition. Each unordered edge {u, v} with u < v is owned by its
// lower endpoint: node u's FORWARD stream fwd(u) ⊆ (u, n) is a geometric
// skip walk over the targets u+1 … n-1 driven by the dedicated substream
// Rng::for_stream(seed, u). Forward streams are mutually independent and a
// pure function of (seed, u), so any fwd(u) can be (re)generated at any
// time, in any order, and always yields the same bytes — this is what makes
// repeated and out-of-order neighborhood queries deterministic.
//
// Full neighborhoods. row(v) = rev(v) ++ fwd(v) where
// rev(v) = {u < v : v ∈ fwd(u)} needs the other streams, so the first full
// query builds the whole CSR index once (std::call_once — thread-safe and
// shared by copies, like Graph's bitmap cache): one streaming pass emits
// every forward stream as one ascending run per node, and
// Graph::from_sorted_runs places them — the same counting placement every
// materialized G(n,p) producer uses, with NO comparison sort anywhere. At
// n = 10^7, d = 3 ln n that is the difference between ~10 s and the minutes
// an edge-list sort costs, and the peak footprint is the CSR itself plus
// the forward half (~3 GB), never a 24-byte-per-edge sort buffer.
//
// After the index is built every accessor is const, allocation-free and
// thread-safe, and finds the index with one acquire load instead of a
// call_once; spans returned by neighbors() are stable for the lifetime of
// the (shared) index.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace radio {

class ImplicitGnp {
 public:
  ImplicitGnp() = default;

  /// Defines the instance (n, p, seed). Nothing is sampled yet; the node cap
  /// matches the materialized generators (n ≤ 0xFFFFFFFE). Requires
  /// 0 ≤ p ≤ 1.
  ImplicitGnp(NodeId n, double p, std::uint64_t seed);

  NodeId num_nodes() const noexcept { return n_; }
  double p() const noexcept { return p_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Degree of v (builds the index on first call).
  NodeId degree(NodeId v) const { return index().degree(v); }

  /// Sorted neighbors of v; the span stays valid while any copy of this
  /// backend is alive.
  std::span<const NodeId> neighbors(NodeId v) const {
    return index().neighbors(v);
  }

  /// O(log deg) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// Number of undirected edges (builds the index).
  EdgeCount num_edges() const { return index().num_edges(); }

  /// The forward stream fwd(v) alone, regenerated from its substream without
  /// touching the index — the primitive the property tests pin byte-stability
  /// against.
  std::vector<NodeId> forward_neighbors(NodeId v) const;

  /// CSR twin of this instance: identical node set, edge set and per-row
  /// neighbor order. The equivalence suite compares every query against it.
  Graph materialize() const;

 private:
  struct Index {
    std::once_flag once;
    Graph graph;  ///< the full symmetric CSR
    /// &graph once it is built, published with release order: a query
    /// that reads it non-null with acquire order sees the whole CSR and
    /// skips call_once.
    std::atomic<const Graph*> built{nullptr};
  };

  /// The built CSR: one acquire load on every query, and build_index()
  /// (call_once) only until the index is published.
  const Graph& index() const {
    const Graph* graph = index_->built.load(std::memory_order_acquire);
    return graph != nullptr ? *graph : build_index();
  }

  const Graph& build_index() const;

  NodeId n_ = 0;
  double p_ = 0.0;
  std::uint64_t seed_ = 0;
  /// Heap-allocated so the backend stays movable (once_flag is not); shared
  /// between copies — sound because the index is immutable once built.
  std::shared_ptr<Index> index_ = std::make_shared<Index>();
};

static_assert(GraphBackend<ImplicitGnp>);
static_assert(GraphBackend<Graph>);

}  // namespace radio
