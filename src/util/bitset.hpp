// Flat dynamic bitset tuned for the simulator's hot loops: informed sets,
// transmitter sets and per-round "hit once / hit twice" marks over node ids,
// and the one fixed-q Bernoulli walk over a set (for_each_sampled).
// std::vector<bool> is avoided (no word access, poor codegen); boost is not a
// dependency. Only the operations the simulator needs are provided.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace radio {

/// Number of 64-bit words needed to hold `n` bits.
inline constexpr std::size_t words_for_bits(std::size_t n) noexcept {
  return (n + 63) / 64;
}

// ---------------------------------------------------------------------------
// Raw word-level primitives used by the dense-round channel kernel
// (sim/channel_kernel.hpp). They operate on plain word arrays so adjacency
// bitmap rows (spans into Graph's cache) and Bitset storage compose freely.
// All bits past a bitset's logical size are guaranteed zero by Bitset's
// mutators, so whole-word sweeps need no tail masking.
// ---------------------------------------------------------------------------

/// a & ~b — the "listeners only" mask builder.
inline std::uint64_t andnot(std::uint64_t a, std::uint64_t b) noexcept {
  return a & ~b;
}

/// Saturating 2-bit counter update for one transmitter row:
/// twice |= once & row; once |= row.
inline void accumulate_hits_words(std::uint64_t* once, std::uint64_t* twice,
                                  const std::uint64_t* row,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    twice[i] |= once[i] & row[i];
    once[i] |= row[i];
  }
}

/// Calls fn(base + bit) for every set bit of `word`, ascending.
template <class Fn>
inline void for_each_set_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

class Bitset {
 public:
  Bitset() = default;

  explicit Bitset(std::size_t n) : size_(n), words_(words_for_bits(n), 0) {}

  std::size_t size() const noexcept { return size_; }

  /// Word-level view for the dense kernel's whole-array sweeps.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::span<std::uint64_t> words() noexcept { return words_; }

  bool test(std::size_t i) const noexcept {
    RADIO_EXPECTS(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) noexcept {
    RADIO_EXPECTS(i < size_);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void reset(std::size_t i) noexcept {
    RADIO_EXPECTS(i < size_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Sets bit i and reports whether it was previously clear.
  bool set_if_clear(std::size_t i) noexcept {
    RADIO_EXPECTS(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    const bool was_clear = (w & mask) == 0;
    w |= mask;
    return was_clear;
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  std::size_t count() const noexcept;

  /// True iff no bit is set.
  bool none() const noexcept;

  /// True iff every bit in [0, size) is set.
  bool all() const noexcept;

  /// Calls fn(i) for every set bit i in increasing order, one word test per
  /// 64 bits: a sparse set costs O(n/64 + count), not O(n) bit tests.
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      for_each_set_bit(words_[wi], wi * 64, fn);
  }

  /// Calls fn(i), in increasing order, for the set bits i that a
  /// Bernoulli(q) draw selects: one BernoulliDraw(q) per set bit, so the
  /// selection and the generator state after it are exactly those of
  /// `if (rng.bernoulli(q)) fn(i)` over for_each_set. The walk draws from a
  /// local copy of `rng`, which the compiler keeps in registers, and writes
  /// it back at the end; `fn` must therefore not draw from `rng`.
  template <class Fn>
  void for_each_sampled(double q, Rng& rng, Fn&& fn) const {
    const BernoulliDraw selected(q);
    Rng local = rng;
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      for_each_set_bit(words_[wi], wi * 64, [&](std::size_t i) {
        if (selected(local)) fn(i);
      });
    rng = local;
  }

  /// Appends the indices of all set bits to `out` in increasing order.
  void collect(std::vector<std::uint32_t>& out) const;

  /// In-place union with an equally sized bitset; returns how many bits
  /// newly flipped to set (the gossip session's knowledge-merge primitive).
  std::size_t set_union(const Bitset& other) noexcept;

  bool operator==(const Bitset& other) const noexcept = default;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace radio
