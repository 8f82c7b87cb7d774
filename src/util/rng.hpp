// Deterministic, stream-splittable pseudo-random number generation.
//
// Monte-Carlo trials run in parallel (one OpenMP task per trial), so every
// trial derives its own generator from (base_seed, trial_index) via
// SplitMix64 — never from the thread id or a shared generator mid-sweep;
// each probe of a schedule search and each lane of the sim/batch core
// likewise draws from a stream of its own. Results are therefore
// bit-identical regardless of thread count AND of batch lane width: a batch
// trial draws the exact same sequence whether it runs solo or packed 64
// lanes wide (pinned by tests/analysis/test_batch_determinism.cpp).
//
// Xoshiro256** is the workhorse generator: 256-bit state, passes BigCrush,
// ~1 ns per draw, and satisfies UniformRandomBitGenerator so it composes with
// <random> distributions when needed. We provide hand-rolled uniform /
// bernoulli / binomial / geometric helpers because libstdc++'s
// std::binomial_distribution is not reproducible across versions.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace radio {

/// SplitMix64: 64-bit state scrambler used for seeding and stream splitting.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, rewritten). All-zero state is repaired at seeding time.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  /// Deterministic sub-stream for trial `stream`: hashes seed and stream
  /// through SplitMix64 SEQUENTIALLY — the seed gets a full avalanche before
  /// the stream index is injected, then the combination is scrambled again.
  /// (The previous `seed ^ (c·(stream+1))` pre-mix let distinct
  /// (seed, stream) pairs collide trivially, e.g. (s, 0) and (s ^ c·3, 1);
  /// after the avalanche such collisions are no longer constructible.)
  /// The golden values in tests/util/test_rng.cpp pin this derivation.
  static Xoshiro256StarStar for_stream(std::uint64_t seed,
                                       std::uint64_t stream) noexcept {
    SplitMix64 seed_mix(seed);
    SplitMix64 pair_mix(seed_mix.next() ^ stream);
    return Xoshiro256StarStar(pair_mix.next());
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Unbiased uniform integer in [0, bound) via Lemire's multiply-shift
  /// rejection method. Requires bound > 0.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Geometric: number of failures before the first success, success
  /// probability p in (0, 1]. Used by the G(n,p) skip sampler.
  std::uint64_t geometric_skips(double p) noexcept;

  /// The same draw with log1p(-p) computed once by the caller: a skip walk
  /// draws one skip per edge at a fixed p, and recomputing the log costs
  /// about a third of each draw. Bit-identical to geometric_skips(p) when
  /// log_q == std::log1p(-p).
  std::uint64_t geometric_skips(double p, double log_q) noexcept;

  /// Binomial(n, p) via inversion for small mean and a numerically stable
  /// normal-tail hybrid otherwise. Exact distribution is not required by any
  /// algorithm (only generators/tests), but determinism is.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Poisson(mean) via Knuth's product-of-uniforms method, chunked so
  /// exp(-chunk) never underflows. Exact distribution (sums of independent
  /// Poissons are Poisson), deterministic, O(mean) draws — sized for the
  /// streaming arrival rates (sim/stream), which are < a few per round.
  std::uint64_t poisson(double mean) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Library-wide generator alias; algorithms take `Rng&` so the engine can be
/// swapped in one place.
using Rng = Xoshiro256StarStar;

/// Repeated Bernoulli(q) draws at one fixed q, each one exactly
/// rng.bernoulli(q): the same result and the same generator state after it.
/// For 0 < q < 1, bernoulli compares (rng() >> 11)·2⁻⁵³ with q, which holds
/// exactly when the integer rng() >> 11 is below ⌈q·2⁵³⌉ (scaling by 2⁵³ is
/// exact, and an integer is below a real iff it is below the real's
/// ceiling), so each draw is one integer compare. q ≤ 0 and q ≥ 1 draw
/// nothing, as bernoulli does; a NaN q draws once and is never selected,
/// as bernoulli's `uniform() < NaN` is. Bitset::for_each_sampled draws
/// through it, and every fixed-q selection walks a set through that helper:
/// Theorem 5's phase 2, both branches of Theorem 7, the oblivious sequences
/// and uniform gossip. Adaptive backoff (a q per node) and Decay (a fair
/// coin kept in place) call bernoulli directly.
class BernoulliDraw {
 public:
  explicit BernoulliDraw(double q) noexcept;

  template <class Generator>
  bool operator()(Generator& rng) const noexcept {
    if (!draws_) return always_;
    return (rng() >> 11) < threshold_;
  }

 private:
  bool draws_;
  bool always_;
  std::uint64_t threshold_;
};

/// Stable 64-bit tag for string-keyed table rows (protocol names, scenario
/// labels). FNV-1a, fixed here forever: std::hash<std::string> is
/// implementation-defined, so seeding from it would change results across
/// standard libraries.
constexpr std::uint64_t stable_row_tag(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-row base seed for experiment drivers: hashes (seed, experiment_id,
/// row_tag) through SplitMix64 SEQUENTIALLY, each component getting a full
/// avalanche before the next is injected — the same discipline as
/// Rng::for_stream above and pinned by golden values in
/// tests/util/test_rng.cpp.
///
/// This replaces the ad-hoc `config.seed ^ (n*k + …)` pre-mixes the drivers
/// used to build per-row seeds with: XOR-ing structured row coordinates into
/// the seed lets distinct rows collide trivially (E1's `n*131 + d` gave
/// (n, d) and (n', d') the same trial streams whenever n*131+d == n'*131+d',
/// and any two rows whose tags XOR to the same mask share every draw), so
/// supposedly independent table rows silently reran identical Monte-Carlo
/// samples. radio_lint's `no-xor-seed-derivation` rule keeps the XOR form
/// from coming back.
constexpr std::uint64_t derive_row_seed(std::uint64_t seed,
                                        std::uint64_t experiment_id,
                                        std::uint64_t row_tag) noexcept {
  SplitMix64 seed_mix(seed);
  SplitMix64 experiment_mix(seed_mix.next() ^ experiment_id);
  SplitMix64 row_mix(experiment_mix.next() ^ row_tag);
  return row_mix.next();
}

/// Two-coordinate rows (e.g. a (n, protocol-kind) grid): the first tag is
/// fully avalanched before the second is injected, so pairs cannot cancel
/// the way `tag1 * k + tag2` arithmetic could.
constexpr std::uint64_t derive_row_seed(std::uint64_t seed,
                                        std::uint64_t experiment_id,
                                        std::uint64_t row_tag,
                                        std::uint64_t row_tag2) noexcept {
  SplitMix64 row2_mix(derive_row_seed(seed, experiment_id, row_tag) ^
                      row_tag2);
  return row2_mix.next();
}

/// Word-parallel exact Bernoulli sampler: next_word() returns 64 independent
/// Bernoulli(p) bits per call, EXACTLY distributed (not an approximation).
///
/// Each lane conceptually compares an infinite random bit string U against
/// the binary expansion of p; lane bit = [U < p]. A lane is decided at the
/// first digit where U and p differ, so each random word halves the
/// undecided-lane population and a 64-lane word costs ~7 generator draws in
/// expectation — ~0.1 draws per Bernoulli bit, an order of magnitude cheaper
/// than one uniform() per bit and the reason the dense G(n,p) bitmap
/// generator (graph/random_graph.cpp) beats geometric skip sampling once
/// p ≳ 1/64. Digits of p are produced by exact doubling (q *= 2 is exact in
/// binary floating point; q -= 1 on [1,2) is exact by Sterbenz), so the
/// sampler terminates after at most ~1075 digits and consumes a
/// deterministic, state-dependent number of draws.
class BernoulliWordGen {
 public:
  /// `rng` is borrowed and must outlive the sampler.
  BernoulliWordGen(double p, Rng& rng) noexcept : p_(p), rng_(&rng) {
    if (p_ < 0.0) p_ = 0.0;
    if (p_ > 1.0) p_ = 1.0;
  }

  /// 64 fresh iid Bernoulli(p) bits. p in {0, 1} consumes no draws.
  std::uint64_t next_word() noexcept {
    if (p_ <= 0.0) return 0;
    if (p_ >= 1.0) return ~std::uint64_t{0};
    std::uint64_t undecided = ~std::uint64_t{0};
    std::uint64_t result = 0;
    double q = p_;
    while (undecided != 0 && q > 0.0) {
      q += q;
      const bool digit = q >= 1.0;
      if (digit) q -= 1.0;
      const std::uint64_t r = (*rng_)();
      if (digit) {
        // p's digit is 1: lanes whose U-digit is 0 decide U < p.
        result |= undecided & ~r;
        undecided &= r;
      } else {
        // p's digit is 0: lanes whose U-digit is 1 decide U > p.
        undecided &= ~r;
      }
    }
    // Lanes still undecided matched every digit of p; all remaining digits
    // of p are 0, so U < p is impossible for them — their bit stays 0.
    return result;
  }

 private:
  double p_;
  Rng* rng_;
};

}  // namespace radio
