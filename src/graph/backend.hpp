// Backend-agnostic graph access: the GraphBackend concept and the runtime
// backend-selection vocabulary.
//
// Every topology consumer that does not need a *materialized* adjacency
// array (BFS, coverings, the centralized schedule builder) is templated on
// GraphBackend instead of taking `const Graph&`. The concept is exactly the
// read surface those algorithms share:
//
//   num_nodes()  — node count,
//   num_edges()  — undirected edge count (2m seeds the Σ deg bookkeeping of
//                  the direction-optimizing traversals),
//   degree(v)    — neighborhood size,
//   neighbors(v) — the neighborhood as a contiguous span, in ASCENDING id
//                  order,
//   has_edge(u,v)— membership test.
//
// The ascending order is a contract, not a convenience: bfs_layers'
// bottom-up step (graph/bfs.hpp) reproduces the order in which a top-down
// step appends a layer, (parent rank, id), only because every list ascends.
//
// Two models ship today: the CSR/bitmap-backed `Graph` (graph.hpp) and the
// on-demand `ImplicitGnp` sampler (implicit_gnp.hpp). Both return stable
// spans: once a neighborhood has been produced it never moves, which is what
// lets range-for loops with early exits (`++hits > 1 → break`) stay the
// idiom across backends.
//
// GraphBackendChoice is the user-facing selection knob (--graph-backend):
// kAuto lets the generation cost model pick per instance (see
// generate_gnp_backend in random_graph.hpp), the others pin a backend.
// Strings are the strict parse vocabulary used by the analysis layer; junk
// input is rejected with exit 2 like every other knob.
#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <string_view>

#include "graph/types.hpp"

namespace radio {

template <class G>
concept GraphBackend = requires(const G& g, NodeId u, NodeId v) {
  { g.num_nodes() } -> std::same_as<NodeId>;
  { g.num_edges() } -> std::same_as<EdgeCount>;
  { g.degree(v) } -> std::same_as<NodeId>;
  { g.neighbors(v) } -> std::convertible_to<std::span<const NodeId>>;
  { g.has_edge(u, v) } -> std::same_as<bool>;
};

/// How experiment drivers ask for a topology representation.
enum class GraphBackendChoice : std::uint8_t {
  kAuto = 0,   ///< cost model picks dense-bitmap vs CSR per instance
  kCsr,        ///< classic edge-list → CSR path (legacy draw sequence)
  kBitmap,     ///< word-parallel Bernoulli bitmap generation (dense regime)
  kImplicit,   ///< on-demand ImplicitGnp sampler (giant-n regime)
};

constexpr const char* to_string(GraphBackendChoice choice) noexcept {
  switch (choice) {
    case GraphBackendChoice::kCsr: return "csr";
    case GraphBackendChoice::kBitmap: return "bitmap";
    case GraphBackendChoice::kImplicit: return "implicit";
    case GraphBackendChoice::kAuto: break;
  }
  return "auto";
}

/// The strict parse: exactly one of auto|csr|bitmap|implicit, nothing else.
inline std::optional<GraphBackendChoice> graph_backend_from_name(
    std::string_view name) noexcept {
  if (name == "auto") return GraphBackendChoice::kAuto;
  if (name == "csr") return GraphBackendChoice::kCsr;
  if (name == "bitmap") return GraphBackendChoice::kBitmap;
  if (name == "implicit") return GraphBackendChoice::kImplicit;
  return std::nullopt;
}

}  // namespace radio
