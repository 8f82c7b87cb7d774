// Bitset: word-boundary behaviour, counting, collection, the set_if_clear
// primitive the simulator relies on, and the fixed-q sampling walk.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace radio {
namespace {

TEST(Bitset, StartsAllClear) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.all());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetAndTest) {
  Bitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_FALSE(b.test(62));
  EXPECT_FALSE(b.test(65));
  EXPECT_EQ(b.count(), 4u);
}

TEST(Bitset, ResetClearsBit) {
  Bitset b(70);
  b.set(65);
  EXPECT_TRUE(b.test(65));
  b.reset(65);
  EXPECT_FALSE(b.test(65));
  EXPECT_TRUE(b.none());
}

TEST(Bitset, SetIfClearReportsTransitions) {
  Bitset b(10);
  EXPECT_TRUE(b.set_if_clear(3));
  EXPECT_FALSE(b.set_if_clear(3));
  EXPECT_TRUE(b.test(3));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, ClearAll) {
  Bitset b(200);
  for (std::size_t i = 0; i < 200; i += 3) b.set(i);
  EXPECT_GT(b.count(), 0u);
  b.clear_all();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, AllDetectsFullSetAcrossWordBoundary) {
  for (std::size_t n : {1, 63, 64, 65, 128, 130}) {
    Bitset b(n);
    for (std::size_t i = 0; i + 1 < n; ++i) b.set(i);
    EXPECT_FALSE(b.all()) << "n=" << n;
    b.set(n - 1);
    EXPECT_TRUE(b.all()) << "n=" << n;
  }
}

TEST(Bitset, AllOnEmptyBitsetIsTrue) {
  Bitset b(0);
  EXPECT_TRUE(b.all());
  EXPECT_TRUE(b.none());
}

TEST(Bitset, CollectReturnsAscendingIndices) {
  Bitset b(150);
  const std::vector<std::uint32_t> expected = {0, 5, 63, 64, 127, 149};
  for (auto i : expected) b.set(i);
  std::vector<std::uint32_t> collected;
  b.collect(collected);
  EXPECT_EQ(collected, expected);
}

TEST(Bitset, CollectAppendsToExistingVector) {
  Bitset b(10);
  b.set(4);
  std::vector<std::uint32_t> out = {99};
  b.collect(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 99u);
  EXPECT_EQ(out[1], 4u);
}

TEST(Bitset, EqualityComparesContents) {
  Bitset a(64), b(64);
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
}

TEST(Bitset, SetUnionMergesAndCountsGains) {
  Bitset a(130), b(130);
  a.set(0);
  a.set(64);
  b.set(64);
  b.set(65);
  b.set(129);
  EXPECT_EQ(a.set_union(b), 2u);  // gains 65 and 129; 64 already set
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(65));
  EXPECT_TRUE(a.test(129));
  EXPECT_EQ(a.count(), 4u);
}

TEST(Bitset, SetUnionWithSelfGainsNothing) {
  Bitset a(70);
  a.set(3);
  a.set(69);
  EXPECT_EQ(a.set_union(a), 0u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Bitset, SetUnionWithEmptyOperands) {
  Bitset a(10), b(10);
  EXPECT_EQ(a.set_union(b), 0u);
  b.set(9);
  EXPECT_EQ(a.set_union(b), 1u);
}

TEST(BitsetDeathTest, SetUnionSizeMismatchRejected) {
  Bitset a(10), b(11);
  EXPECT_DEATH(a.set_union(b), "precondition");
}

// --- word-level primitives used by the dense-round channel kernel ---

TEST(WordOps, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
  EXPECT_EQ(words_for_bits(129), 3u);
}

TEST(WordOps, Andnot) {
  EXPECT_EQ(andnot(0b1100, 0b1010), 0b0100u);
  EXPECT_EQ(andnot(~0ULL, 0), ~0ULL);
  EXPECT_EQ(andnot(~0ULL, ~0ULL), 0u);
}

TEST(WordOps, AccumulateHitsSaturatesAtTwo) {
  // Fold three rows: a bit hit once lands in `once` only; hit twice or more
  // also lands in `twice` and stays there.
  std::uint64_t once[1] = {0}, twice[1] = {0};
  const std::uint64_t row_a[1] = {0b0111};
  const std::uint64_t row_b[1] = {0b0011};
  const std::uint64_t row_c[1] = {0b0001};
  accumulate_hits_words(once, twice, row_a, 1);
  accumulate_hits_words(once, twice, row_b, 1);
  accumulate_hits_words(once, twice, row_c, 1);
  EXPECT_EQ(once[0], 0b0111u);   // every bit hit at least once
  EXPECT_EQ(twice[0], 0b0011u);  // bits 0 and 1 hit two-plus times
  EXPECT_EQ(andnot(once[0], twice[0]), 0b0100u);  // exactly-once mask
}

TEST(WordOps, ForEachSetBitAscendingWithBase) {
  std::vector<std::size_t> seen;
  for_each_set_bit((std::uint64_t{1} << 63) | 0b1001, 128,
                   [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{128, 131, 191}));
  for_each_set_bit(0, 0, [&](std::size_t) { FAIL() << "no bits set"; });
}

TEST(Bitset, WordsViewTailBitsStayZero) {
  // The kernel sweeps whole words without tail masking; Bitset must never
  // leak set bits past its logical size.
  Bitset b(70);
  for (std::size_t i = 0; i < 70; ++i) b.set(i);
  const auto w = b.words();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], ~0ULL);
  EXPECT_EQ(w[1], (std::uint64_t{1} << 6) - 1);
}

TEST(Bitset, CountMatchesManualTallyOnPattern) {
  Bitset b(1000);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 1000; i += 7) {
    b.set(i);
    ++expected;
  }
  EXPECT_EQ(b.count(), expected);
}

// ---- for_each_sampled: rng.bernoulli(q) per set bit, draw for draw.

TEST(BitsetSampling, MatchesPerBitBernoulliAndGeneratorState) {
  const double probabilities[] = {0.0,
                                  -1.0,
                                  1.0,
                                  2.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  0x1.0p-53,
                                  1.0 / 3.0,
                                  1.0 / 69.0,
                                  std::nextafter(1.0, 0.0)};
  enum class Fill { kEmpty, kSparse, kFull };
  std::uint64_t seed = 900;
  for (const std::size_t size : {0, 1, 63, 64, 65, 4133}) {
    for (const Fill fill : {Fill::kEmpty, Fill::kSparse, Fill::kFull}) {
      Bitset set(size);
      for (std::size_t i = 0; i < size; ++i)
        if (fill == Fill::kFull || (fill == Fill::kSparse && i % 13 == 5))
          set.set(i);
      if (fill == Fill::kSparse && size > 0) set.set(size - 1);
      for (const double q : probabilities) {
        Rng rng(++seed);
        Rng reference = rng;
        std::vector<std::size_t> expected;
        for (std::size_t i = 0; i < size; ++i)
          if (set.test(i) && reference.bernoulli(q)) expected.push_back(i);
        std::vector<std::size_t> selected;
        set.for_each_sampled(q, rng,
                             [&](std::size_t i) { selected.push_back(i); });
        ASSERT_EQ(selected, expected)
            << "size " << size << ", q = " << q << ", set bits "
            << set.count();
        for (int i = 0; i < 4; ++i)
          ASSERT_EQ(rng(), reference())
              << "size " << size << ", q = " << q << ", set bits "
              << set.count();
        if (std::isnan(q)) {
          // bernoulli(NaN) draws once per bit and never selects.
          EXPECT_TRUE(selected.empty());
        }
      }
    }
  }
}

}  // namespace
}  // namespace radio
