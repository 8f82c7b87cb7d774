// Random graph generators: edge-count concentration, determinism, dense and
// sparse paths, G(n,m) exactness, connectivity helpers, and the sort-free
// CSR assembly every G(n,p) producer goes through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "graph/components.hpp"
#include "graph/degree.hpp"
#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"
#include "util/bitset.hpp"

namespace radio {
namespace {

TEST(Gnp, ZeroProbabilityIsEmpty) {
  Rng rng(1);
  const Graph g = generate_gnp({100, 0.0}, rng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Gnp, ProbabilityOneIsComplete) {
  Rng rng(2);
  const Graph g = generate_gnp({40, 1.0}, rng);
  EXPECT_EQ(g.num_edges(), 40u * 39u / 2u);
  for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(g.degree(v), 39u);
}

TEST(Gnp, EdgeCountConcentratesSparse) {
  Rng rng(3);
  const GnpParams params{2000, 0.01};
  const Graph g = generate_gnp(params, rng);
  const double expected = 0.01 * 2000.0 * 1999.0 / 2.0;  // ~19990
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              5.0 * std::sqrt(expected));
}

TEST(Gnp, EdgeCountConcentratesDensePath) {
  Rng rng(4);
  const GnpParams params{400, 0.8};  // exercises the complement sampler
  const Graph g = generate_gnp(params, rng);
  const double expected = 0.8 * 400.0 * 399.0 / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              5.0 * std::sqrt(expected * 0.2));
}

TEST(Gnp, DeterministicForFixedSeed) {
  Rng a(5), b(5);
  const Graph g1 = generate_gnp({500, 0.02}, a);
  const Graph g2 = generate_gnp({500, 0.02}, b);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

TEST(Gnp, DifferentSeedsDifferentGraphs) {
  Rng a(6), b(7);
  const Graph g1 = generate_gnp({500, 0.02}, a);
  const Graph g2 = generate_gnp({500, 0.02}, b);
  EXPECT_NE(g1.edge_list(), g2.edge_list());
}

TEST(Gnp, NoSelfLoopsOrDuplicates) {
  Rng rng(8);
  const Graph g = generate_gnp({300, 0.05}, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v);
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
}

TEST(Gnp, WithDegreeHelperGivesRequestedMeanDegree) {
  Rng rng(9);
  const GnpParams params = GnpParams::with_degree(3000, 25.0);
  EXPECT_NEAR(params.expected_degree(), 25.0, 1e-9);
  const Graph g = generate_gnp(params, rng);
  const DegreeStats stats = degree_stats(g);
  EXPECT_NEAR(stats.mean_degree, 25.0, 1.5);
}

TEST(Gnp, TinyGraphs) {
  Rng rng(10);
  const Graph g0 = generate_gnp({0, 0.5}, rng);
  EXPECT_EQ(g0.num_nodes(), 0u);
  const Graph g1 = generate_gnp({1, 0.5}, rng);
  EXPECT_EQ(g1.num_nodes(), 1u);
  EXPECT_EQ(g1.num_edges(), 0u);
  const Graph g2 = generate_gnp({2, 1.0}, rng);
  EXPECT_EQ(g2.num_edges(), 1u);
}

TEST(Gnm, ExactEdgeCount) {
  Rng rng(11);
  for (EdgeCount m : {0ULL, 1ULL, 50ULL, 500ULL}) {
    const Graph g = generate_gnm(100, m, rng);
    EXPECT_EQ(g.num_edges(), m);
    EXPECT_EQ(g.num_nodes(), 100u);
  }
}

TEST(Gnm, CompleteGraph) {
  Rng rng(12);
  const EdgeCount all = 30ULL * 29ULL / 2ULL;
  const Graph g = generate_gnm(30, all, rng);
  EXPECT_EQ(g.num_edges(), all);
}

TEST(Gnm, DensePathNearComplete) {
  Rng rng(13);
  const EdgeCount all = 60ULL * 59ULL / 2ULL;
  const Graph g = generate_gnm(60, all - 10, rng);  // complement sampler path
  EXPECT_EQ(g.num_edges(), all - 10);
}

// n = 30 has 435 pairs, so m = 100 takes the direct sampling branch and
// m = 400 the complement branch. Both must produce EXACTLY m edges of a
// simple graph (the reserve-size fix touched both branches' setup code).
TEST(Gnm, BothBranchesExactAndSimple) {
  Rng rng(20);
  const NodeId n = 30;
  for (const EdgeCount m : {EdgeCount{100}, EdgeCount{400}}) {
    const Graph g = generate_gnm(n, m, rng);
    EXPECT_EQ(g.num_edges(), m);
    EXPECT_EQ(g.num_nodes(), n);
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_NE(nbrs[i], v);
        if (i > 0) {
          EXPECT_LT(nbrs[i - 1], nbrs[i]);
        }
      }
    }
  }
}

// Exactly the half-pairs boundary and one edge to either side.
TEST(Gnm, BranchBoundaryEdgeCounts) {
  Rng rng(21);
  const NodeId n = 30;
  const EdgeCount total = 30ULL * 29ULL / 2ULL;  // 435
  for (const EdgeCount m : {total / 2 - 1, total / 2, total / 2 + 1}) {
    const Graph g = generate_gnm(n, m, rng);
    EXPECT_EQ(g.num_edges(), m);
  }
}

TEST(Gnm, Deterministic) {
  Rng a(14), b(14);
  const Graph g1 = generate_gnm(200, 1000, a);
  const Graph g2 = generate_gnm(200, 1000, b);
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

/// Property sweep: across p values, the sparse and dense samplers both
/// produce simple graphs with edge counts within 6 sigma of np(n-1)/2.
class GnpSweep : public ::testing::TestWithParam<double> {};

TEST_P(GnpSweep, EdgeCountWithinSixSigma) {
  const double p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1e6) + 17);
  const NodeId n = 600;
  const Graph g = generate_gnp({n, p}, rng);
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  const double expected = p * pairs;
  const double sigma = std::sqrt(pairs * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              6.0 * sigma + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, GnpSweep,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2, 0.5, 0.51,
                                           0.8, 0.95, 0.999));

// ---------------------------------------------------------------------------
// Linearized lower-triangle pair indexing (the skip sampler's coordinates).
// ---------------------------------------------------------------------------

TEST(PairIndex, PinnedSmallValues) {
  // Pair order: (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
  EXPECT_EQ(pair_linear_index(0, 1), 0u);
  EXPECT_EQ(pair_linear_index(0, 2), 1u);
  EXPECT_EQ(pair_linear_index(1, 2), 2u);
  EXPECT_EQ(pair_linear_index(2, 3), 5u);
  const Edge e0 = pair_from_linear_index(0);
  EXPECT_EQ(e0.u, 0u);
  EXPECT_EQ(e0.v, 1u);
  const Edge e1 = pair_from_linear_index(1);
  EXPECT_EQ(e1.u, 0u);
  EXPECT_EQ(e1.v, 2u);
  const Edge e2 = pair_from_linear_index(2);
  EXPECT_EQ(e2.u, 1u);
  EXPECT_EQ(e2.v, 2u);
  const Edge e5 = pair_from_linear_index(5);
  EXPECT_EQ(e5.u, 2u);
  EXPECT_EQ(e5.v, 3u);
}

TEST(PairIndex, RoundTripsExhaustivelyForSmallN) {
  std::uint64_t idx = 0;
  for (NodeId v = 1; v < 200; ++v) {
    for (NodeId u = 0; u < v; ++u, ++idx) {
      EXPECT_EQ(pair_linear_index(u, v), idx);
      const Edge e = pair_from_linear_index(idx);
      EXPECT_EQ(e.u, u);
      EXPECT_EQ(e.v, v);
    }
  }
}

TEST(PairIndex, RoundTripsAtNearCapBoundaries) {
  // The long-double sqrt decode must stay exact (after the correction walk)
  // up to the last pair of the largest supported graph. Probe row starts,
  // row ends and mid-row points of huge rows.
  const NodeId cap = 0xFFFFFFFE;
  for (const NodeId v : {NodeId{3}, NodeId{65536}, NodeId{1u << 30},
                         static_cast<NodeId>(cap - 1)}) {
    const std::uint64_t start =
        static_cast<std::uint64_t>(v) * (v - 1) / 2;
    for (const std::uint64_t idx :
         {start, start + v / 2, start + v - 1}) {
      const Edge e = pair_from_linear_index(idx);
      EXPECT_EQ(e.v, v) << "idx=" << idx;
      EXPECT_EQ(pair_linear_index(e.u, e.v), idx);
      EXPECT_LT(e.u, e.v);
    }
  }
}

// ---------------------------------------------------------------------------
// Overflow regression: the skip walk at the node cap. The legacy sampler
// accumulated clamped ~9e18 skips into a SIGNED 64-bit pair index —
// undefined behaviour on wrap, and near n = 0xFFFFFFFE the total pair count
// 2^63 - 2^32 sits within one clamped skip of the signed edge. The rewritten
// walk guards against running off total_pairs before any addition, in pure
// uint64 arithmetic. These run under UBSan in the sanitizer CI stage.
// ---------------------------------------------------------------------------

TEST(GnpOverflow, NearCapTinyPStaysInRange) {
  const NodeId n = 0xFFFFFFFE;  // largest supported node count
  Rng rng(71);
  // ~9.2e18 pairs * 1e-14 ~= 92k edges: big enough to exercise many skips,
  // small enough to hold the edge list (a Graph's offsets alone would not
  // fit in test memory at this n).
  const std::vector<Edge> edges = sample_gnp_edges(n, 1e-14, rng);
  const double expected = 1e-14 * 0.5 * static_cast<double>(n) *
                          (static_cast<double>(n) - 1.0);
  EXPECT_NEAR(static_cast<double>(edges.size()), expected,
              6.0 * std::sqrt(expected));
  std::uint64_t prev = 0;
  bool first = true;
  for (const Edge& e : edges) {
    ASSERT_LT(e.u, e.v);
    ASSERT_LT(e.v, n);
    const std::uint64_t idx = pair_linear_index(e.u, e.v);
    if (!first) {
      ASSERT_GT(idx, prev);  // strictly increasing, no wraparound
    }
    prev = idx;
    first = false;
  }
}

TEST(GnpOverflow, NearCapClampedSkipTerminates) {
  // p = 1e-19 makes every geometric skip hit the 9e18 clamp — comparable to
  // the total pair count, the regime where the signed accumulator used to
  // wrap. The walk must terminate with a handful of valid edges.
  const NodeId n = 0xFFFFFFFE;
  Rng rng(72);
  const std::vector<Edge> edges = sample_gnp_edges(n, 1e-19, rng);
  EXPECT_LE(edges.size(), 64u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_LT(e.v, n);
  }
}

TEST(GnpOverflow, NearCapDeterministic) {
  const NodeId n = 0xFFFFFFFE;
  Rng a(73), b(73);
  const std::vector<Edge> e1 = sample_gnp_edges(n, 1e-14, a);
  const std::vector<Edge> e2 = sample_gnp_edges(n, 1e-14, b);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].u, e2[i].u);
    EXPECT_EQ(e1[i].v, e2[i].v);
  }
}

// ---------------------------------------------------------------------------
// Word-parallel bitmap generation and the backend dispatcher.
// ---------------------------------------------------------------------------

TEST(GnpBitmap, EdgeCountConcentrates) {
  Rng rng(30);
  const NodeId n = 600;
  const double p = 0.3;
  const Graph g = generate_gnp_bitmap({n, p}, rng);
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), p * pairs,
              6.0 * std::sqrt(pairs * p * (1.0 - p)));
}

TEST(GnpBitmap, ProducesSimpleSymmetricGraph) {
  Rng rng(31);
  const Graph g = generate_gnp_bitmap({257, 0.2}, rng);  // non-multiple of 64
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v);
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]);
      }
      EXPECT_TRUE(g.has_edge(nbrs[i], v));  // symmetry
    }
  }
}

TEST(GnpBitmap, EdgeCases) {
  Rng rng(32);
  const Graph empty = generate_gnp_bitmap({100, 0.0}, rng);
  EXPECT_EQ(empty.num_edges(), 0u);
  const Graph complete = generate_gnp_bitmap({40, 1.0}, rng);
  EXPECT_EQ(complete.num_edges(), 40u * 39u / 2u);
  const Graph g0 = generate_gnp_bitmap({0, 0.5}, rng);
  EXPECT_EQ(g0.num_nodes(), 0u);
  const Graph g1 = generate_gnp_bitmap({1, 0.5}, rng);
  EXPECT_EQ(g1.num_edges(), 0u);
  const Graph g2 = generate_gnp_bitmap({2, 1.0}, rng);
  EXPECT_EQ(g2.num_edges(), 1u);
}

TEST(GnpBitmap, DeterministicForFixedSeed) {
  Rng a(33), b(33);
  const Graph g1 = generate_gnp_bitmap({500, 0.25}, a);
  const Graph g2 = generate_gnp_bitmap({500, 0.25}, b);
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

TEST(GnpBackend, CsrChoiceMatchesLegacyGenerator) {
  Rng a(34), b(34);
  const GnpParams params{800, 0.03};
  const Graph legacy = generate_gnp(params, a);
  const Graph csr = generate_gnp_backend(params, b, GraphBackendChoice::kCsr);
  EXPECT_EQ(legacy.edge_list(), csr.edge_list());
}

class GnpBackendSweep
    : public ::testing::TestWithParam<std::tuple<GraphBackendChoice, double>> {
};

TEST_P(GnpBackendSweep, SimpleGraphWithConcentratedEdgeCount) {
  const auto [choice, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1e6) + 35);
  const NodeId n = 500;
  const Graph g = generate_gnp_backend({n, p}, rng, choice);
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), p * pairs,
              6.0 * std::sqrt(pairs * p * (1.0 - p)) + 1.0);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v);
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChoicesAndDensities, GnpBackendSweep,
    ::testing::Combine(::testing::Values(GraphBackendChoice::kAuto,
                                         GraphBackendChoice::kCsr,
                                         GraphBackendChoice::kBitmap,
                                         GraphBackendChoice::kImplicit),
                       ::testing::Values(0.005, 0.05, 0.49, 0.51, 0.9)));

// ---------------------------------------------------------------------------
// Sort-free CSR assembly. Every G(n,p) producer hands its draws to
// Graph::from_sorted_runs (or, above the dense-round line, to from_bitmap);
// each must build exactly Graph::from_edges of the pairs it drew, and leave
// the Rng where a test-side draw of those pairs leaves it.
// ---------------------------------------------------------------------------

/// A graph's (offsets, adj) arrays, read back through the public API.
struct Csr {
  std::vector<EdgeCount> offsets;
  std::vector<NodeId> adj;
  friend bool operator==(const Csr&, const Csr&) = default;
};

Csr csr_of(const Graph& g) {
  Csr csr;
  csr.offsets.push_back(0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    csr.offsets.push_back(csr.offsets.back() + g.degree(v));
    for (const NodeId w : g.neighbors(v)) csr.adj.push_back(w);
  }
  return csr;
}

/// FNV-1a over the little-endian bytes of offsets (8 each), then adj (4).
std::uint64_t csr_digest(const Graph& g) {
  const Csr csr = csr_of(g);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const EdgeCount offset : csr.offsets) mix(offset, 8);
  for (const NodeId w : csr.adj) mix(w, 4);
  return h;
}

/// Test-side skip walk: every kept pair index decoded on its own (no row
/// walk), each skip through the one-argument geometric_skips (no hoisted
/// log).
std::vector<Edge> skip_walk_pairs(NodeId n, double p, Rng& rng) {
  std::vector<Edge> pairs;
  if (p <= 0.0 || n < 2) return pairs;
  const std::uint64_t total = pair_linear_index(0, n);
  std::uint64_t idx = 0;
  for (;;) {
    const std::uint64_t skip = rng.geometric_skips(p);
    if (skip >= total - idx) break;
    idx += skip;
    pairs.push_back(pair_from_linear_index(idx));
    ++idx;
  }
  return pairs;
}

/// Test-side word sampler: row v of the lower triangle is ⌈v/64⌉ words,
/// bit b of word k standing for column 64k + b (kept when < v).
std::vector<Edge> word_pairs(NodeId n, double p, Rng& rng) {
  std::vector<Edge> pairs;
  BernoulliWordGen gen(p, rng);
  for (NodeId v = 1; v < n; ++v)
    for (std::size_t k = 0; k < words_for_bits(v); ++k) {
      const std::uint64_t word = gen.next_word();
      for (NodeId b = 0; b < 64; ++b) {
        const auto u = static_cast<NodeId>(64 * k + b);
        if (u < v && ((word >> b) & 1)) pairs.push_back(Edge{u, v});
      }
    }
  return pairs;
}

/// generate_gnp's p > 1/2 draw: a skip walk at 1 − p picks the non-edges.
std::vector<Edge> complement_pairs(NodeId n, double p, Rng& rng) {
  const std::vector<Edge> non_edges = skip_walk_pairs(n, 1.0 - p, rng);
  std::vector<Edge> pairs;
  std::size_t next = 0;
  for (NodeId v = 1; v < n; ++v)
    for (NodeId u = 0; u < v; ++u) {
      if (next < non_edges.size() && non_edges[next] == Edge{u, v})
        ++next;
      else
        pairs.push_back(Edge{u, v});
    }
  return pairs;
}

/// The pairs generate_gnp_backend(choice) draws at test sizes (where every
/// bitmap fits).
std::vector<Edge> oracle_pairs(NodeId n, double p, GraphBackendChoice choice,
                               Rng& rng) {
  const bool words = choice == GraphBackendChoice::kBitmap ||
                     (choice == GraphBackendChoice::kAuto && p >= 1.0 / 64.0);
  if (words) return word_pairs(n, p, rng);
  if (p > 0.5) return complement_pairs(n, p, rng);
  return skip_walk_pairs(n, p, rng);
}

class AssemblySweep
    : public ::testing::TestWithParam<std::tuple<NodeId, GraphBackendChoice>> {
};

TEST_P(AssemblySweep, ProducerEqualsFromEdgesOfTheSamePairs) {
  const auto [n, choice] = GetParam();
  // Either side of the word sampler's 1/64 switch and of the degree line
  // (kTouchesPerBitmapWord·⌈n/64⌉) above which it keeps its bitmap.
  const double line =
      static_cast<double>(kTouchesPerBitmapWord * words_for_bits(n)) /
      static_cast<double>(n);
  std::vector<double> probabilities = {0.0, 1e-3, 0.99 / 64.0, 1.01 / 64.0,
                                       0.99 * line};
  if (1.01 * line <= 1.0) probabilities.push_back(1.01 * line);
  // The dense draws stop at n = 257 (five words per row): at n = 4133 each
  // would sort millions of oracle edges.
  if (n <= 257) probabilities.insert(probabilities.end(), {0.5, 0.9, 1.0});
  for (const double p : probabilities) {
    SCOPED_TRACE(::testing::Message() << "p = " << p);
    const std::uint64_t seed = 1400 + n;
    Rng producer_rng(seed), oracle_rng(seed);
    const Graph g = generate_gnp_backend({n, p}, producer_rng, choice);
    const Graph expected =
        Graph::from_edges(n, oracle_pairs(n, p, choice, oracle_rng));
    EXPECT_EQ(csr_of(g), csr_of(expected));
    EXPECT_EQ(producer_rng(), oracle_rng());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndChoices, AssemblySweep,
    ::testing::Combine(::testing::Values(NodeId{2}, NodeId{63}, NodeId{64},
                                         NodeId{65}, NodeId{257},
                                         NodeId{4133}),
                       ::testing::Values(GraphBackendChoice::kCsr,
                                         GraphBackendChoice::kBitmap,
                                         GraphBackendChoice::kAuto)),
    [](const ::testing::TestParamInfo<AssemblySweep::ParamType>& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_";
      name += to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(ImplicitAssembly, MaterializeEqualsFromEdgesOfForwardStreams) {
  for (const NodeId n : {NodeId{2}, NodeId{63}, NodeId{64}, NodeId{65},
                         NodeId{257}, NodeId{4133}}) {
    for (const double p : {0.0, 1e-3, 0.05, 1.0}) {
      if (p == 1.0 && n > 257) continue;  // 8.5M edges: covered at n = 257
      SCOPED_TRACE(::testing::Message() << "n = " << n << ", p = " << p);
      const ImplicitGnp g(n, p, 1500 + n);
      std::vector<Edge> pairs;
      for (NodeId v = 0; v < n; ++v)
        for (const NodeId w : g.forward_neighbors(v))
          pairs.push_back(Edge{v, w});
      EXPECT_EQ(csr_of(g.materialize()), csr_of(Graph::from_edges(n, pairs)));
    }
  }
}

// FNV-1a digests of (offsets, adj), one case per assembly, recorded with the
// edge-sorting assembly this one replaced. A change to any draw or to the
// placement order fails here loudly.
TEST(AssemblyGolden, DigestsMatchTheSortingAssembly) {
  struct Case {
    const char* name;
    NodeId n;
    double p;
    std::uint64_t seed;
    GraphBackendChoice choice;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"skip walk, lower runs", 4133, 0.003, 1501, GraphBackendChoice::kCsr,
       0xb81d305ec4d09177ULL},
      {"word sampler, lower runs", 4096, 0.0169, 1502,
       GraphBackendChoice::kAuto, 0xe2a8ff2bbdd89a44ULL},
      {"word sampler, mirrored bitmap", 2053, 0.2, 1503,
       GraphBackendChoice::kBitmap, 0x5f2eb950984cfbe9ULL},
      {"complement walk, bitmap", 777, 0.85, 1504, GraphBackendChoice::kCsr,
       0xa38b51c7d0e6d73cULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    EXPECT_EQ(csr_digest(generate_gnp_backend({c.n, c.p}, rng, c.choice)),
              c.digest)
        << c.name;
  }
  EXPECT_EQ(csr_digest(ImplicitGnp(4133, 0.004, 1505).materialize()),
            0xb09c0b181ee7ae8aULL)
      << "implicit, forward runs";
}

TEST(SortedRuns, BothSidesMatchFromEdges) {
  // Edges {0,2}, {1,2}, {1,3} listed once each, from either endpoint.
  const Graph expected = Graph::from_edges(4, {{0, 2}, {1, 2}, {1, 3}});
  const std::vector<EdgeCount> below_offsets = {0, 0, 0, 2, 3};
  const std::vector<NodeId> below_runs = {0, 1, 1};
  EXPECT_EQ(csr_of(Graph::from_sorted_runs(4, Graph::RunSide::kBelow,
                                           below_offsets, below_runs)),
            csr_of(expected));
  const std::vector<EdgeCount> above_offsets = {0, 1, 3, 3, 3};
  const std::vector<NodeId> above_runs = {2, 2, 3};
  EXPECT_EQ(csr_of(Graph::from_sorted_runs(4, Graph::RunSide::kAbove,
                                           above_offsets, above_runs)),
            csr_of(expected));
  const std::vector<EdgeCount> empty_offsets = {0};
  EXPECT_EQ(Graph::from_sorted_runs(0, Graph::RunSide::kBelow, empty_offsets,
                                    {})
                .num_nodes(),
            0u);
}

TEST(SortedRunsDeathTest, RejectsEntriesThatBreakRowOrder) {
  // run(2) holds two entries and run(3) one, all below their owners.
  const std::vector<EdgeCount> offsets = {0, 0, 0, 2, 3};
  const auto build = [&](std::vector<NodeId> runs, Graph::RunSide side) {
    return Graph::from_sorted_runs(4, side, offsets, runs);
  };
  const auto below = Graph::RunSide::kBelow;
  EXPECT_DEATH((void)build({1, 0, 1}, below), "precondition");  // descending
  EXPECT_DEATH((void)build({1, 1, 1}, below), "precondition");  // duplicate
  EXPECT_DEATH((void)build({0, 2, 1}, below), "precondition");  // self-loop
  EXPECT_DEATH((void)build({0, 3, 1}, below), "precondition");  // wrong side
  // run(0) = {1, 4} above its owner, but 4 is not a node of a 4-node graph.
  const std::vector<EdgeCount> above_offsets = {0, 2, 2, 2, 2};
  const std::vector<NodeId> out_of_range = {1, 4};
  EXPECT_DEATH((void)Graph::from_sorted_runs(4, Graph::RunSide::kAbove,
                                             above_offsets, out_of_range),
               "precondition");
}

TEST(GraphBackendName, StrictParse) {
  EXPECT_EQ(graph_backend_from_name("auto"), GraphBackendChoice::kAuto);
  EXPECT_EQ(graph_backend_from_name("csr"), GraphBackendChoice::kCsr);
  EXPECT_EQ(graph_backend_from_name("bitmap"), GraphBackendChoice::kBitmap);
  EXPECT_EQ(graph_backend_from_name("implicit"),
            GraphBackendChoice::kImplicit);
  EXPECT_FALSE(graph_backend_from_name(""));
  EXPECT_FALSE(graph_backend_from_name("AUTO"));
  EXPECT_FALSE(graph_backend_from_name("csr "));
  EXPECT_FALSE(graph_backend_from_name("dense"));
  EXPECT_FALSE(graph_backend_from_name("implicit7"));
}

TEST(GraphBackendName, RoundTripsToString) {
  for (const GraphBackendChoice c :
       {GraphBackendChoice::kAuto, GraphBackendChoice::kCsr,
        GraphBackendChoice::kBitmap, GraphBackendChoice::kImplicit}) {
    EXPECT_EQ(graph_backend_from_name(to_string(c)), c);
  }
}

}  // namespace
}  // namespace radio
