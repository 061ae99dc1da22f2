#include "khop/common/rng.hpp"

namespace khop {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> counter,
    std::array<std::uint32_t, 2> key) noexcept {
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * counter[0];
    const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * counter[2];
    counter = {static_cast<std::uint32_t>(p1 >> 32) ^ counter[1] ^ key[0],
               static_cast<std::uint32_t>(p1),
               static_cast<std::uint32_t>(p0 >> 32) ^ counter[3] ^ key[1],
               static_cast<std::uint32_t>(p0)};
    key[0] += 0x9E3779B9u;  // Weyl key schedule
    key[1] += 0xBB67AE85u;
  }
  return counter;
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_origin_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
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

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method: unbiased for any n > 0.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng Rng::spawn(std::uint64_t stream_index) const noexcept {
  // Derive from the origin seed, not the current state, so a trial's stream
  // does not depend on how many draws the parent has made before spawning.
  std::uint64_t sm = seed_origin_;
  const std::uint64_t base = splitmix64(sm);
  std::uint64_t mix = base ^ (0x9e3779b97f4a7c15ULL + stream_index * 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t child_seed = splitmix64(mix);
  return Rng(child_seed);
}

}  // namespace khop
