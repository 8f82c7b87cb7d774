#include "graph/implicit_gnp.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace radio {
namespace {

/// Appends fwd(v) — the geometric skip walk over targets v+1 … n-1 driven by
/// Rng::for_stream(seed, v) — to `out`. The walk is index arithmetic in
/// uint64 with every addition guarded by the remaining-candidate budget, the
/// same overflow discipline as sample_gnp_edges.
void append_forward_stream(NodeId n, double p, std::uint64_t seed, NodeId v,
                           std::vector<NodeId>& out) {
  if (p <= 0.0 || v + 1 >= n) return;
  const std::uint64_t span = static_cast<std::uint64_t>(n) - 1 - v;
  if (p >= 1.0) {
    for (std::uint64_t j = 0; j < span; ++j)
      out.push_back(static_cast<NodeId>(v + 1 + j));
    return;
  }
  Rng rng = Rng::for_stream(seed, v);
  const double log_q = std::log1p(-p);
  std::uint64_t offset = 0;  // candidates consumed so far
  while (true) {
    const std::uint64_t skip = rng.geometric_skips(p, log_q);
    if (skip >= span - offset) break;
    offset += skip;
    out.push_back(static_cast<NodeId>(v + 1 + offset));
    ++offset;
  }
}

}  // namespace

ImplicitGnp::ImplicitGnp(NodeId n, double p, std::uint64_t seed)
    : n_(n), p_(p), seed_(seed) {
  RADIO_EXPECTS(p >= 0.0 && p <= 1.0);
  RADIO_EXPECTS(n <= 0xFFFFFFFE);
}

std::vector<NodeId> ImplicitGnp::forward_neighbors(NodeId v) const {
  RADIO_EXPECTS(v < n_);
  std::vector<NodeId> out;
  append_forward_stream(n_, p_, seed_, v, out);
  return out;
}

bool ImplicitGnp::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

const Graph& ImplicitGnp::build_index() const {
  Index& ix = *index_;
  std::call_once(ix.once, [&] {
    // Stream every forward walk into one run per node (ascending v, each run
    // ascending by construction, all above their owner).
    std::vector<EdgeCount> foff(static_cast<std::size_t>(n_) + 1, 0);
    std::vector<NodeId> fadj;
    const double expected = 0.5 * p_ * static_cast<double>(n_) *
                            static_cast<double>(n_ > 0 ? n_ - 1 : 0);
    fadj.reserve(static_cast<std::size_t>(expected * 1.05) + 16);
    for (NodeId v = 0; v < n_; ++v) {
      append_forward_stream(n_, p_, seed_, v, fadj);
      foff[v + 1] = fadj.size();
    }
    ix.graph = Graph::from_sorted_runs(n_, Graph::RunSide::kAbove, foff, fadj);
    ix.built.store(&ix.graph, std::memory_order_release);
  });
  return ix.graph;
}

Graph ImplicitGnp::materialize() const { return index(); }

}  // namespace radio
