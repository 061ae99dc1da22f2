/// \file rng.hpp
/// Deterministic pseudo-random number generation.
///
/// The Monte-Carlo harness runs thousands of independent trials, possibly in
/// parallel, and every result must be reproducible from a single master seed.
/// We use xoshiro256** (public domain, Blackman & Vigna) seeded via
/// SplitMix64, plus a stream-derivation function so that trial i draws from
/// an independent, deterministic stream regardless of scheduling order.
#pragma once

#include <array>
#include <cstdint>

namespace khop {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
/// 3", SC'11): a keyed bijection of a 128-bit counter. It has no state, so a
/// draw is a pure function of (counter, key) and may be evaluated in any
/// order, on any thread - unlike Rng, whose draws depend on call order.
std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> counter,
    std::array<std::uint32_t, 2> key) noexcept;

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Uses Lemire's unbiased rejection method.
  /// \pre n > 0
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Derives an independent child generator for the given stream index.
  /// Deterministic: same (parent seed, index) always yields the same stream.
  Rng spawn(std::uint64_t stream_index) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_origin_ = 0;  // retained so spawn() is scheduling-free
};

}  // namespace khop
