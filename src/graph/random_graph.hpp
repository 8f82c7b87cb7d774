// Random graph generators: the Gilbert model G(n,p) the paper works in, and
// the Erdős–Rényi model G(n,m) it also covers.
//
// G(n,p) uses Batagelj–Brandes geometric skipping over the linearized lower
// triangle, so generation costs O(n + m) regardless of how small p is. For
// p > 1/2 we sample the complement's edges and invert, keeping the draws at
// O(n + m̄) in the dense regime (§3.1 of the paper, p = 1 − f(n)).
//
// Every G(n,p) producer draws the lower triangle row by row, each row's
// columns ascending, and hands those runs to Graph::from_sorted_runs: the
// CSR is assembled by counting placement with no edge sort. Only
// generate_gnp_bitmap above the dense-round line (kTouchesPerBitmapWord)
// and the p > 1/2 complement build a bitmap instead, which the graph keeps
// for the dense-round kernel.
//
// Connectivity: the paper's regime p ≥ δ ln n / n makes G(n,p) connected
// w.h.p., and all theorems are "w.h.p." statements. Experiments that need a
// connected instance take it from make_broadcast_instance
// (analysis/workload.hpp), which resamples or restricts to the giant
// component and records which it did.
#pragma once

#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace radio {

struct GnpParams {
  NodeId n = 0;
  double p = 0.0;

  /// Expected average degree d = p * n (the paper's central parameter).
  double expected_degree() const noexcept { return p * static_cast<double>(n); }

  /// Convenience: parameters giving expected average degree `d`.
  static GnpParams with_degree(NodeId n, double d) noexcept {
    return GnpParams{n, d / static_cast<double>(n)};
  }
};

// ---------------------------------------------------------------------------
// Linearized lower-triangle pair indexing. The Batagelj–Brandes walk and its
// giant-n regression tests address unordered pairs (u < v) by one uint64:
// pairs are ordered (0,1),(0,2),(1,2),(0,3),… so index(u,v) = v(v-1)/2 + u.
// All arithmetic stays in uint64 — valid for every n up to the 0xFFFFFFFE
// node cap, where the pair count n(n-1)/2 ≈ 9.2e18 still fits below 2^63.
// ---------------------------------------------------------------------------

constexpr std::uint64_t pair_linear_index(NodeId u, NodeId v) noexcept {
  return static_cast<std::uint64_t>(v) * (static_cast<std::uint64_t>(v) - 1) /
             2 +
         static_cast<std::uint64_t>(u);
}

/// Inverse of pair_linear_index in O(1): a long-double sqrt (64-bit mantissa,
/// exact for idx < 2^63 up to ±a few ulps) plus an integer correction walk.
/// Requires idx < n(n-1)/2 for the caller's intended n.
Edge pair_from_linear_index(std::uint64_t idx) noexcept;

/// The raw Batagelj–Brandes geometric-skip sampler over the lower triangle:
/// each pair (u < v) is kept independently with probability p; O(n + m)
/// draws; pairs come out in ascending linear index. generate_gnp walks the
/// same pairs straight into sorted runs (and takes this edge list for its
/// p > 1/2 complement); it is exposed so the giant-n overflow regression
/// tests can exercise the walk at n near the 0xFFFFFFFE cap without
/// materializing a Graph (whose offsets array alone would be 34 GB).
/// The skip walk is unchecked uint64 arithmetic throughout: every addition
/// is guarded against the remaining pair budget BEFORE it happens, so
/// neither a clamped ~9e18 skip nor the final ++ past the last pair can
/// wrap (the previous int64 walk was UB in exactly that regime).
std::vector<Edge> sample_gnp_edges(NodeId n, double p, Rng& rng);

/// Samples G(n,p). Requires 0 <= p <= 1.
Graph generate_gnp(const GnpParams& params, Rng& rng);

/// Word-parallel generator: draws the strict lower triangle row by row as
/// exact Bernoulli(p) words (util/rng.hpp BernoulliWordGen — ~0.1 draws per
/// pair instead of one geometric per edge). Identical distribution to
/// generate_gnp but a DIFFERENT draw sequence, so same-seed instances differ
/// between the two generators. When the expected degree exceeds
/// kTouchesPerBitmapWord·⌈n/64⌉ (graph.hpp), where dense rounds can pay, the
/// rows are mirrored into a symmetric bitmap that the Graph keeps as its
/// adjacency cache (Graph::from_bitmap; callers gate that on
/// bitmap_fits). Below it each row is decoded straight into a sorted
/// run (Graph::from_sorted_runs) and no bitmap is built. Either way the
/// draws, and so the graph, are the same.
Graph generate_gnp_bitmap(const GnpParams& params, Rng& rng);

/// Backend-selected generation: kCsr pins the legacy skip-sampling path
/// (byte-stable draw sequence), kBitmap pins the word-parallel generator
/// (falling back to CSR when an n × ⌈n/64⌉ bitmap would not fit), kAuto
/// applies the cost model — the word sampler when the bitmap fits and
/// p ≥ 1/64 (one expected edge per word, where words beat one geometric
/// draw per edge).
/// kImplicit is handled by callers that can hold an ImplicitGnp; here it
/// selects like kAuto so materialized-only drivers degrade gracefully.
Graph generate_gnp_backend(const GnpParams& params, Rng& rng,
                           GraphBackendChoice choice);

/// Samples G(n,m): exactly m distinct edges uniformly at random among all
/// simple graphs with m edges. Requires m <= n(n-1)/2.
Graph generate_gnm(NodeId n, EdgeCount m, Rng& rng);

}  // namespace radio
