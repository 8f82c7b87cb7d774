// Immutable undirected graph in compressed sparse row (CSR) form.
//
// All simulator and algorithm code reads neighborhoods through spans over the
// CSR arrays; the structure is built once per trial and then shared read-only
// across any parallel analysis, which is what makes trial-level OpenMP
// parallelism safe. Adjacency lists are sorted, enabling O(log deg) edge
// queries and cache-friendly sequential sweeps.
//
// Builders: from_edges takes an arbitrary edge list and sorts it;
// from_sorted_runs takes each edge once, in ascending per-node runs, and
// places them without any comparison sort — every G(n,p) producer
// (random_graph.hpp, implicit_gnp.hpp) draws its edges in that shape;
// from_bitmap decodes a symmetric adjacency bitmap and keeps it as the
// dense-round kernel's cache.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace radio {

/// Adjacency bitmaps cost n·⌈n/64⌉·8 bytes; neither the dense-round kernel
/// nor the G(n,p) generators build one by choice above this cap (≈ 1 GiB ⇒
/// n ≲ 92k nodes).
inline constexpr std::size_t kBitmapByteLimit = std::size_t{1} << 30;

/// Whether an n-node adjacency bitmap stays within kBitmapByteLimit.
constexpr bool bitmap_fits(NodeId n) noexcept {
  const std::size_t words_per_row = (static_cast<std::size_t>(n) + 63) / 64;
  return static_cast<std::size_t>(n) * words_per_row * sizeof(std::uint64_t) <=
         kBitmapByteLimit;
}

/// The exchange rate of both bitmap cost models: sweeping one sequential
/// bitmap word costs about as much as this many random adjacency-list
/// touches. dense_round_pays (sim/channel_kernel.hpp) prices a round's
/// ⌈n/64⌉-word rows at this rate, so a dense round needs its transmitters'
/// mean degree above kTouchesPerBitmapWord·⌈n/64⌉; generate_gnp_bitmap keeps
/// its adjacency bitmap only for draws whose expected degree exceeds that
/// line, since below it the bitmap would go unread (the lazy cache still
/// builds it for a dense round that does come).
inline constexpr EdgeCount kTouchesPerBitmapWord = 2;

class Graph {
 public:
  /// Which side of its owner every run given to from_sorted_runs lies on.
  enum class RunSide : std::uint8_t {
    kBelow,  ///< run(x) ⊂ [0, x): the lower-triangle rows G(n,p) is drawn in
    kAbove,  ///< run(x) ⊂ (x, n): ImplicitGnp's forward streams
  };

  Graph() = default;

  /// Builds a simple undirected graph on `n` nodes from an edge list.
  /// Self-loops are rejected; duplicate edges (in either orientation) are
  /// collapsed. Endpoints must be < n.
  static Graph from_edges(NodeId n, std::span<const Edge> edges);

  /// Braced-list convenience (std::span has no initializer_list ctor in
  /// C++20): Graph::from_edges(3, {{0,1},{1,2}}).
  static Graph from_edges(NodeId n, std::initializer_list<Edge> edges) {
    return from_edges(n, std::span<const Edge>(edges.begin(), edges.size()));
  }

  /// Builds the graph with an edge {x, y} for every y in run(x) =
  /// runs[run_offsets[x], run_offsets[x+1]), each edge listed once: every
  /// run strictly ascending and on `side` of its owner. Counting placement —
  /// one pass sizes the rows, one pass over ascending owners appends run(x)
  /// to row x and x to the row of each y in it — leaves every row sorted
  /// with no comparison sort, in O(n + m). Aborts on a descending, duplicate,
  /// self-loop, wrong-side or out-of-range entry. Requires
  /// run_offsets.size() == n + 1, run_offsets[0] == 0 and
  /// run_offsets[n] == runs.size().
  static Graph from_sorted_runs(NodeId n, RunSide side,
                                std::span<const EdgeCount> run_offsets,
                                std::span<const NodeId> runs);

  /// Builds from a symmetric n × ⌈n/64⌉ adjacency bitmap (bit w of row v set
  /// iff {v, w} is an edge; no diagonal bits, tail bits ≥ n clear). The CSR
  /// arrays are decoded from the rows — bits come out ascending, so no sort —
  /// and the bitmap itself is installed as the pre-built adjacency cache, so
  /// the dense-round kernel never rebuilds it. generate_gnp_bitmap takes this
  /// path only above the kTouchesPerBitmapWord line, where dense rounds can
  /// pay. Requires words.size() == n · ⌈n/64⌉.
  static Graph from_bitmap(NodeId n, std::vector<std::uint64_t> words);

  NodeId num_nodes() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  EdgeCount num_edges() const noexcept { return adj_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// O(log deg) membership test.
  bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Recovers the undirected edge list (u < v), sorted lexicographically.
  std::vector<Edge> edge_list() const;

  /// Induced subgraph on `nodes` (need not be sorted; duplicates rejected).
  /// Returns the subgraph plus the mapping new-id -> old-id.
  struct InducedSubgraph;
  InducedSubgraph induced(std::span<const NodeId> nodes) const;

  // ---- adjacency bitmap (dense-round kernel substrate) --------------------
  // Row-major n × ⌈n/64⌉ bitmap: bit w of row v is set iff {v, w} is an edge.
  // Built lazily on first use (thread-safe; the graph stays shareable
  // read-only across parallel trials) and shared by copies of this Graph.
  // Costs n·⌈n/64⌉·8 bytes — callers gate on bitmap_bytes() before opting in.

  /// Words per bitmap row (⌈n/64⌉).
  std::size_t bitmap_words_per_row() const noexcept {
    return (static_cast<std::size_t>(num_nodes()) + 63) / 64;
  }

  /// Memory the full bitmap occupies (whether or not it is built yet).
  std::size_t bitmap_bytes() const noexcept {
    return static_cast<std::size_t>(num_nodes()) * bitmap_words_per_row() *
           sizeof(std::uint64_t);
  }

  /// The full bitmap, building it on first call. Row v occupies words
  /// [v·wpr, (v+1)·wpr).
  std::span<const std::uint64_t> adjacency_bitmap() const;

  /// One row of the bitmap (builds the cache on first call).
  std::span<const std::uint64_t> adjacency_row(NodeId v) const {
    const auto bitmap = adjacency_bitmap();
    const std::size_t wpr = bitmap_words_per_row();
    return bitmap.subspan(static_cast<std::size_t>(v) * wpr, wpr);
  }

 private:
  struct AdjacencyBitmapCache {
    std::once_flag once;
    std::vector<std::uint64_t> words;
  };

  std::vector<EdgeCount> offsets_;  ///< size n+1
  std::vector<NodeId> adj_;         ///< size 2m, sorted within each node
  /// Heap-allocated so Graph stays movable (once_flag is not); shared between
  /// copies, which is sound because adjacency is immutable after build.
  std::shared_ptr<AdjacencyBitmapCache> bitmap_cache_ =
      std::make_shared<AdjacencyBitmapCache>();
};

struct Graph::InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original_id;  ///< new id -> original id
};

}  // namespace radio
