// RNG: determinism, stream independence, and distributional sanity of the
// uniform / bernoulli / geometric / binomial helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace radio {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, StreamsAreIndependentOfEachOther) {
  Rng a = Rng::for_stream(42, 0);
  Rng b = Rng::for_stream(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, StreamIsReproducible) {
  Rng a = Rng::for_stream(42, 17);
  Rng b = Rng::for_stream(42, 17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// Golden values pinning the for_stream derivation (SplitMix64 over the seed,
// then over avalanche(seed) ^ stream). Any change to the mixing — intentional
// or not — invalidates every published experiment seed, so it must show up
// here, not in silently shifted Monte-Carlo numbers.
TEST(Xoshiro, ForStreamGoldenValues) {
  const struct {
    std::uint64_t seed, stream;
    std::uint64_t expect[3];
  } cases[] = {
      {42, 0,
       {0xc986fd807e5b8ab5ULL, 0xe071ea15f19664d1ULL, 0x728624137f1e7291ULL}},
      {42, 1,
       {0xbdfd821062a087dbULL, 0x06c2e1f34acfb9e1ULL, 0x0c7ca92e2905572bULL}},
      {42, 17,
       {0xb67173f68f6161daULL, 0x12648f4246042f79ULL, 0x79f03f72c463ab66ULL}},
      {0, 0,
       {0x8c4986f3f0e565d5ULL, 0xf4547fdf5c2f56b6ULL, 0x6a9e0d6a14f022fbULL}},
      {3735928559ULL, 123456789ULL,
       {0xd460081295710f25ULL, 0xb0bae48ef3f6e24eULL, 0x2da12c7fb6820ffbULL}},
  };
  for (const auto& c : cases) {
    Rng rng = Rng::for_stream(c.seed, c.stream);
    for (const std::uint64_t want : c.expect)
      EXPECT_EQ(rng(), want) << "seed=" << c.seed << " stream=" << c.stream;
  }
}

// The previous derivation pre-mixed `seed ^ (c * (stream + 1))` with
// c = 0x9e3779b97f4a7c15 (the SplitMix64 increment), so (s, 0) and
// (s ^ c ^ 2c, 1) fed IDENTICAL state to the generator: whole trial streams
// collided for related seeds. The sequential avalanche makes the old
// collision pair diverge.
TEST(Xoshiro, ForStreamOldCollisionPairDiverges) {
  constexpr std::uint64_t c = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t s : {0ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
    Rng a = Rng::for_stream(s, 0);
    Rng b = Rng::for_stream(s ^ c ^ (2 * c), 1);
    int equal = 0;
    for (int i = 0; i < 256; ++i)
      if (a() == b()) ++equal;
    EXPECT_LE(equal, 1) << "seed " << s;
  }
}

// Adjacent seeds with adjacent streams must not alias either (a weaker but
// broader collision sweep than the constructed pair above).
TEST(Xoshiro, ForStreamNearbyPairsAreDistinct) {
  std::vector<std::uint64_t> first_draws;
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    for (std::uint64_t stream = 0; stream < 8; ++stream)
      first_draws.push_back(Rng::for_stream(seed, stream)());
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::adjacent_find(first_draws.begin(), first_draws.end()),
            first_draws.end());
}

TEST(Xoshiro, UniformIsInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanIsHalf) {
  Rng rng(4);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Xoshiro, UniformBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
  }
}

TEST(Xoshiro, UniformBelowOneAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Xoshiro, UniformBelowIsApproximatelyUniform) {
  Rng rng(7);
  std::map<std::uint64_t, int> counts;
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_below(6)];
  for (const auto& [value, count] : counts) {
    EXPECT_LT(value, 6u);
    EXPECT_NEAR(count, draws / 6.0, draws * 0.01);
  }
}

TEST(Xoshiro, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Rng rng(10);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
  }
}

TEST(Xoshiro, GeometricSkipsWithPOneIsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric_skips(1.0), 0u);
}

TEST(Xoshiro, GeometricSkipsMeanMatchesTheory) {
  Rng rng(12);
  for (double p : {0.5, 0.1, 0.01}) {
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
      acc += static_cast<double>(rng.geometric_skips(p));
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(acc / n, expected, expected * 0.1 + 0.05);
  }
}

TEST(Xoshiro, BinomialEdgeCases) {
  Rng rng(13);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(Xoshiro, BinomialNeverExceedsN) {
  Rng rng(14);
  for (int i = 0; i < 2000; ++i) EXPECT_LE(rng.binomial(50, 0.7), 50u);
}

TEST(Xoshiro, BinomialMeanSmallRegime) {
  Rng rng(15);
  double acc = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    acc += static_cast<double>(rng.binomial(100, 0.05));  // mean 5 (<32 path)
  EXPECT_NEAR(acc / trials, 5.0, 0.2);
}

TEST(Xoshiro, BinomialMeanLargeRegime) {
  Rng rng(16);
  double acc = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    acc += static_cast<double>(rng.binomial(1000, 0.5));  // mean 500 (normal path)
  EXPECT_NEAR(acc / trials, 500.0, 2.0);
}

TEST(Xoshiro, PoissonEdgeCases) {
  Rng rng(18);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  // Vanishing mean: nearly always 0, never negative-garbage.
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.poisson(1e-9), 1u);
}

TEST(Xoshiro, PoissonIsDeterministic) {
  Rng a(19), b(19);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(a.poisson(0.8), b.poisson(0.8));
}

TEST(Xoshiro, PoissonMeanAndVariance) {
  Rng rng(20);
  const double mean = 4.0;
  const int trials = 20000;
  double acc = 0.0, acc2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double k = static_cast<double>(rng.poisson(mean));
    acc += k;
    acc2 += k * k;
  }
  const double m = acc / trials;
  const double var = acc2 / trials - m * m;
  EXPECT_NEAR(m, mean, 0.1);
  EXPECT_NEAR(var, mean, 0.3);  // Poisson: variance == mean
}

TEST(Xoshiro, PoissonChunkedLargeMeanSurvivesExpUnderflow) {
  // Means past ~700 would underflow exp(-mean) without chunking; the
  // chunked walk must stay near the mean (stddev = sqrt(2000) ≈ 45).
  Rng rng(21);
  double acc = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i)
    acc += static_cast<double>(rng.poisson(2000.0));
  EXPECT_NEAR(acc / trials, 2000.0, 15.0);
}

TEST(Xoshiro, BinomialFlippedProbabilityIsSymmetric) {
  Rng rng(17);
  double lo = 0.0, hi = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    lo += static_cast<double>(rng.binomial(40, 0.2));
    hi += static_cast<double>(rng.binomial(40, 0.8));
  }
  EXPECT_NEAR(lo / trials, 8.0, 0.3);
  EXPECT_NEAR(hi / trials, 32.0, 0.3);
}

/// Property sweep: uniform_below over many bounds stays in range and hits
/// both endpoints eventually.
class UniformBelowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformBelowSweep, InRangeAndCoversEndpoints) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 2654435761u + 1);
  bool saw_zero = false, saw_max = false;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.uniform_below(bound);
    ASSERT_LT(v, bound);
    saw_zero |= v == 0;
    saw_max |= v == bound - 1;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformBelowSweep,
                         ::testing::Values(2, 3, 7, 64, 100, 1023));

TEST(BernoulliWordGen, DegenerateProbabilitiesDrawNothing) {
  Rng a(40), untouched(40);
  BernoulliWordGen zero(0.0, a);
  EXPECT_EQ(zero.next_word(), 0u);
  BernoulliWordGen one(1.0, a);
  EXPECT_EQ(one.next_word(), ~std::uint64_t{0});
  // Neither call may have consumed RNG state.
  EXPECT_EQ(a(), untouched());
}

TEST(BernoulliWordGen, HalfIsExactlyOneDraw) {
  // p = 0.5 has the single binary digit 1: the word is decided by one draw
  // (bit set iff the draw's bit is 0 — "digit wins the undecided lane").
  Rng a(41), b(41);
  BernoulliWordGen gen(0.5, a);
  EXPECT_EQ(gen.next_word(), ~b());
  EXPECT_EQ(a(), b());  // exactly one draw was consumed
}

TEST(BernoulliWordGen, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  BernoulliWordGen ga(0.3, a), gb(0.3, b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ga.next_word(), gb.next_word());
}

class BernoulliWordSweep : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliWordSweep, BitDensityMatchesProbability) {
  const double p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1e9) + 43);
  BernoulliWordGen gen(p, rng);
  const int words = 4000;
  const double bits = 64.0 * words;
  double ones = 0;
  for (int i = 0; i < words; ++i)
    ones += static_cast<double>(std::popcount(gen.next_word()));
  EXPECT_NEAR(ones, p * bits, 6.0 * std::sqrt(bits * p * (1.0 - p)) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, BernoulliWordSweep,
                         ::testing::Values(0.01, 0.1, 0.25, 1.0 / 3.0, 0.5,
                                           0.75, 0.9, 0.99));

// ---- BernoulliDraw: bernoulli(q) as an integer compare, draw for draw.

TEST(BernoulliDraw, MatchesBernoulliResultsAndGeneratorState) {
  const double q_min = 0x1.0p-53;
  const double probabilities[] = {q_min,
                                  std::nextafter(q_min, 0.0),
                                  std::nextafter(q_min, 1.0),
                                  1.0 / 3.0,
                                  0.5,
                                  std::nextafter(1.0, 0.0),
                                  std::numeric_limits<double>::denorm_min(),
                                  0.0,
                                  -0.25,
                                  1.0,
                                  1.5,
                                  std::numeric_limits<double>::quiet_NaN()};
  for (const double q : probabilities) {
    Rng a(44), b(44);
    const BernoulliDraw selected(q);
    int hits = 0;
    for (int i = 0; i < 200000; ++i) {
      const bool expected = a.bernoulli(q);
      ASSERT_EQ(selected(b), expected) << "q = " << q << ", draw " << i;
      hits += expected ? 1 : 0;
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b()) << "q = " << q;
    if (q == 0.5 || q == 1.0 / 3.0) {
      EXPECT_NEAR(hits / 200000.0, q, 0.01) << "q = " << q;
    }
  }
}

/// Hands out scripted raw draws, so the compare can be pinned at the
/// threshold itself, which random draws essentially never hit.
struct ScriptedDraws {
  std::vector<std::uint64_t> raw;
  std::size_t next = 0;
  std::uint64_t operator()() noexcept { return raw[next++]; }
};

TEST(BernoulliDraw, ThresholdIsExactAroundEveryBoundary) {
  const double q_min = 0x1.0p-53;
  for (const double q :
       {q_min, std::nextafter(q_min, 0.0), std::nextafter(q_min, 1.0),
        1.0 / 3.0, 0.5, std::nextafter(1.0, 0.0),
        std::numeric_limits<double>::denorm_min(), 0.1, 0.7}) {
    // ⌈q·2⁵³⌉ and its neighbours, each with random low bits below the 53
    // the draw reads.
    const auto t = static_cast<std::uint64_t>(std::ceil(std::ldexp(q, 53)));
    ScriptedDraws draws;
    for (std::uint64_t x : {t - 1, t, t + 1, std::uint64_t{0}})
      if (x < (std::uint64_t{1} << 53)) draws.raw.push_back(x << 11 | 0x5a5);
    const BernoulliDraw selected(q);
    for (std::size_t i = 0; i < draws.raw.size(); ++i) {
      const std::uint64_t raw = draws.raw[i];
      const bool expected =
          static_cast<double>(raw >> 11) * 0x1.0p-53 < q;  // bernoulli's test
      EXPECT_EQ(selected(draws), expected) << "q = " << q << ", raw " << raw;
    }
  }
}

TEST(BernoulliDraw, DegenerateProbabilitiesDrawLikeBernoulli) {
  Rng a(45), untouched(45);
  EXPECT_FALSE(BernoulliDraw(0.0)(a));
  EXPECT_FALSE(BernoulliDraw(-1.0)(a));
  EXPECT_TRUE(BernoulliDraw(1.0)(a));
  EXPECT_TRUE(BernoulliDraw(2.0)(a));
  EXPECT_EQ(a(), untouched());  // none of them drew
  // A NaN q draws once and is never selected.
  Rng b(46), c(46);
  EXPECT_FALSE(BernoulliDraw(std::numeric_limits<double>::quiet_NaN())(b));
  c();
  EXPECT_EQ(b(), c());
}

// ---- derive_row_seed / stable_row_tag: the sanctioned per-row derivation.

TEST(DeriveRowSeed, GoldenValuesArePinned) {
  // Pinned outputs: any change to the mixing chain is a deliberate,
  // golden-updating event (it reshuffles every experiment's RNG streams).
  static_assert(derive_row_seed(42, 1, 0) == 0x93be8420bb55b94cULL);
  static_assert(derive_row_seed(42, 7, 1024) == 0xec62ae0c3696141bULL);
  static_assert(derive_row_seed(42, 7, 1024, 3) == 0xe4f258f2f764c507ULL);
  static_assert(stable_row_tag("") == 0xcbf29ce484222325ULL);  // FNV-1a basis
  static_assert(stable_row_tag("rumor") == 0x7255876a2f6ea32eULL);
  SUCCEED();
}

TEST(DeriveRowSeed, FixesOldXorGridCollision) {
  // Regression for the XOR-offset bug class the drivers used to have: with
  // per-row seeds of the form `seed ^ (n * 131 + d)`, the grid rows
  // (n=1024, d=136) and (n=1025, d=5) land on the SAME tag — and therefore
  // shared every RNG stream.
  const std::uint64_t seed = 42;
  ASSERT_EQ(seed ^ (1024 * 131ULL + 136), seed ^ (1025 * 131ULL + 5));
  EXPECT_NE(derive_row_seed(seed, 1, 1024, 136),
            derive_row_seed(seed, 1, 1025, 5));
}

TEST(DeriveRowSeed, SeparatesExperimentsRowsAndSeeds) {
  // Same row tag under different experiment ids, seeds, or secondary tags
  // must yield unrelated seeds.
  EXPECT_NE(derive_row_seed(42, 1, 512), derive_row_seed(42, 3, 512));
  EXPECT_NE(derive_row_seed(42, 1, 512), derive_row_seed(43, 1, 512));
  EXPECT_NE(derive_row_seed(42, 1, 512, 0), derive_row_seed(42, 1, 512, 1));
  // The 2-tag overload is not the 1-tag overload of some merged value.
  EXPECT_NE(derive_row_seed(42, 1, 512, 0), derive_row_seed(42, 1, 512));
}

TEST(StableRowTag, MatchesAcrossCallsAndDiffersAcrossNames) {
  EXPECT_EQ(stable_row_tag("decay (BGI)"), stable_row_tag("decay (BGI)"));
  EXPECT_NE(stable_row_tag("push"), stable_row_tag("pull"));
  EXPECT_NE(stable_row_tag("a"), stable_row_tag("b"));
}

}  // namespace
}  // namespace radio
