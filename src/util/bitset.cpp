#include "util/bitset.hpp"

#include <bit>

namespace radio {

std::size_t Bitset::count() const noexcept {
  std::size_t total = 0;
  for (auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool Bitset::none() const noexcept {
  for (auto w : words_)
    if (w != 0) return false;
  return true;
}

bool Bitset::all() const noexcept {
  if (size_ == 0) return true;
  const std::size_t full_words = size_ / 64;
  for (std::size_t i = 0; i < full_words; ++i)
    if (words_[i] != ~std::uint64_t{0}) return false;
  const std::size_t tail = size_ & 63;
  if (tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    if ((words_[full_words] & mask) != mask) return false;
  }
  return true;
}

void Bitset::collect(std::vector<std::uint32_t>& out) const {
  for_each_set(
      [&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
}

std::size_t Bitset::set_union(const Bitset& other) noexcept {
  RADIO_EXPECTS(other.size_ == size_);
  std::size_t gained = 0;
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    const std::uint64_t before = words_[wi];
    const std::uint64_t merged = before | other.words_[wi];
    gained += static_cast<std::size_t>(std::popcount(merged ^ before));
    words_[wi] = merged;
  }
  return gained;
}

}  // namespace radio
