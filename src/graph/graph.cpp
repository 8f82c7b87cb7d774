#include "graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

Graph Graph::from_edges(NodeId n, std::span<const Edge> edges) {
  // Normalize to (min, max) orientation, reject self-loops, dedup.
  std::vector<Edge> normalized;
  normalized.reserve(edges.size());
  for (const Edge& e : edges) {
    RADIO_EXPECTS(e.u < n && e.v < n);
    RADIO_EXPECTS(e.u != e.v);
    normalized.push_back(e.u < e.v ? e : Edge{e.v, e.u});
  }
  std::sort(normalized.begin(), normalized.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());

  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : normalized) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> adj(static_cast<std::size_t>(offsets[n]));
  std::vector<EdgeCount> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : normalized) {
    adj[cursor[e.u]++] = e.v;
    adj[cursor[e.v]++] = e.u;
  }
  // Counting placement from a sorted edge list leaves each node's neighbor
  // run sorted except for the interleaving of the two directions; sort each
  // run to guarantee the invariant.
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  for (NodeId v = 0; v < n; ++v) {
    auto begin = g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto end = g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end);
  }
  return g;
}

Graph Graph::from_sorted_runs(NodeId n, RunSide side,
                              std::span<const EdgeCount> run_offsets,
                              std::span<const NodeId> runs) {
  RADIO_EXPECTS(run_offsets.size() == static_cast<std::size_t>(n) + 1);
  RADIO_EXPECTS(run_offsets.front() == 0 && run_offsets.back() == runs.size());
  const bool below = side == RunSide::kBelow;
  // Pass 1: check every entry and size the rows, offsets[x + 1] = deg(x).
  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId x = 0; x < n; ++x) {
    const EdgeCount begin = run_offsets[x];
    const EdgeCount end = run_offsets[x + 1];
    RADIO_EXPECTS(begin <= end);
    offsets[x + 1] += end - begin;
    for (EdgeCount k = begin; k < end; ++k) {
      const NodeId y = runs[k];
      RADIO_EXPECTS(k == begin || runs[k - 1] < y);  // ascending, no repeat
      RADIO_EXPECTS(below ? y < x : (x < y && y < n));
      ++offsets[y + 1];
    }
  }
  // Shifted exclusive prefix sums: offsets[x + 1] becomes row x's start and
  // then its write cursor, which the placement leaves at row x's end — row
  // x + 1's start — so no separate cursor array is needed.
  EdgeCount start = 0;
  for (NodeId x = 0; x < n; ++x) {
    const EdgeCount degree = offsets[x + 1];
    offsets[x + 1] = start;
    start += degree;
  }
  // Pass 2, owners ascending. Each row receives, in order, the owners below
  // it (kAbove) or its own run (kBelow), then its own run (kAbove) or the
  // owners above it (kBelow): ascending either way.
  std::vector<NodeId> adj(static_cast<std::size_t>(start));
  for (NodeId x = 0; x < n; ++x) {
    const auto run =
        runs.subspan(run_offsets[x], run_offsets[x + 1] - run_offsets[x]);
    std::copy(run.begin(), run.end(), adj.data() + offsets[x + 1]);
    offsets[x + 1] += run.size();
    for (const NodeId y : run) adj[offsets[y + 1]++] = x;
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

Graph Graph::from_bitmap(NodeId n, std::vector<std::uint64_t> words) {
  const std::size_t wpr = (static_cast<std::size_t>(n) + 63) / 64;
  RADIO_EXPECTS(words.size() == static_cast<std::size_t>(n) * wpr);
  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    EdgeCount deg = 0;
    for (std::size_t k = 0; k < wpr; ++k)
      deg += static_cast<EdgeCount>(std::popcount(row[k]));
    offsets[v + 1] = offsets[v] + deg;
  }
  std::vector<NodeId> adj(static_cast<std::size_t>(offsets[n]));
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    NodeId* out = adj.data() + offsets[v];
    for (std::size_t k = 0; k < wpr; ++k)
      for_each_set_bit(row[k], k * 64, [&](std::size_t w) {
        RADIO_EXPECTS(w != v);  // diagonal bit == self-loop
        *out++ = static_cast<NodeId>(w);
      });
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  // Install the bitmap as the already-built adjacency cache: store the words
  // first, then fire the once_flag with a no-op so later adjacency_bitmap()
  // calls see a satisfied cache.
  g.bitmap_cache_->words = std::move(words);
  std::call_once(g.bitmap_cache_->once, [] {});
  return g;
}

std::span<const std::uint64_t> Graph::adjacency_bitmap() const {
  AdjacencyBitmapCache& cache = *bitmap_cache_;
  std::call_once(cache.once, [&] {
    const std::size_t wpr = bitmap_words_per_row();
    cache.words.assign(static_cast<std::size_t>(num_nodes()) * wpr, 0);
    for (NodeId v = 0; v < num_nodes(); ++v) {
      std::uint64_t* row = cache.words.data() + static_cast<std::size_t>(v) * wpr;
      for (NodeId w : neighbors(v))
        row[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  });
  return cache.words;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u)
    for (NodeId v : neighbors(u))
      if (u < v) edges.push_back(Edge{u, v});
  return edges;
}

Graph::InducedSubgraph Graph::induced(std::span<const NodeId> nodes) const {
  std::vector<NodeId> new_id(num_nodes(), kInvalidNode);
  std::vector<NodeId> original(nodes.begin(), nodes.end());
  for (std::size_t i = 0; i < original.size(); ++i) {
    RADIO_EXPECTS(original[i] < num_nodes());
    RADIO_EXPECTS(new_id[original[i]] == kInvalidNode);  // no duplicates
    new_id[original[i]] = static_cast<NodeId>(i);
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < original.size(); ++i)
    for (NodeId w : neighbors(original[i]))
      if (new_id[w] != kInvalidNode && original[i] < w)
        edges.push_back(Edge{static_cast<NodeId>(i), new_id[w]});
  InducedSubgraph result;
  result.graph = from_edges(static_cast<NodeId>(original.size()), edges);
  result.original_id = std::move(original);
  return result;
}

}  // namespace radio
