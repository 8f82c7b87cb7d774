#include "protocols/selective_family.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace radio {

bool is_prime(std::uint32_t value) noexcept {
  if (value < 2) return false;
  if (value < 4) return true;
  if (value % 2 == 0) return false;
  for (std::uint32_t f = 3; f * f <= value; f += 2)
    if (value % f == 0) return false;
  return true;
}

ModularFamily build_modular_family(NodeId n, std::uint32_t k) {
  RADIO_EXPECTS(n >= 2);
  RADIO_EXPECTS(k >= 1);
  // Two distinct ids u, v < n can collide (u ≡ v) modulo at most
  // log_q n primes q > threshold, because their difference < n has at most
  // that many prime factors above threshold. Taking all primes in
  // (threshold, 2·threshold] with threshold = k·ln n gives ~threshold/ln
  // threshold primes — comfortably more than log n/ln threshold, so every
  // pair is split by a majority of the primes.
  const double ln_n = std::log(static_cast<double>(n));
  const auto threshold = static_cast<std::uint32_t>(
      std::max(3.0, std::ceil(static_cast<double>(k) * ln_n)));
  ModularFamily family;
  for (std::uint32_t q = threshold + 1; q <= 2 * threshold; ++q) {
    if (!is_prime(q)) continue;
    for (std::uint32_t r = 0; r < q; ++r)
      family.rounds.push_back(ModularFamily::Round{q, r});
  }
  RADIO_ENSURES(!family.rounds.empty());
  return family;
}

void SelectiveFamilyProtocol::reset(const ProtocolContext& ctx) {
  family_ = build_modular_family(ctx.n, k_);
}

void SelectiveFamilyProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng&,
    std::vector<NodeId>& out) {
  RADIO_EXPECTS(!family_.rounds.empty());
  const ModularFamily::Round& r =
      family_.rounds[(round - 1) % family_.rounds.size()];
  session.informed_set().for_each_set([&](std::size_t i) {
    const auto v = static_cast<NodeId>(i);
    if (ModularFamily::selects(r, v)) out.push_back(v);
  });
}

}  // namespace radio
