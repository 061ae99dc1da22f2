#include "khop/radio/delivery.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/common/rng.hpp"

namespace khop {

namespace {

/// Uniform double in [0, 1) drawn for \p a under \p seed. Distinct attempts
/// of one run (any field differs; rounds below 2^32) draw independently:
/// the retry index perturbs the key by an odd Weyl multiple, a bijection for
/// a fixed seed, and the rest of the attempt is the counter.
double attempt_uniform(std::uint64_t seed, const LinkAttempt& a) noexcept {
  const std::uint64_t key = seed ^ (a.attempt * 0x9E3779B97F4A7C15ULL);
  const std::array<std::uint32_t, 4> w = philox4x32(
      {a.from, a.to, static_cast<std::uint32_t>(a.round), a.ordinal},
      {static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(key >> 32)});
  const std::uint64_t bits = (std::uint64_t{w[0]} << 32) | w[1];
  // 53 high bits -> double in [0, 1), as Rng::uniform.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

LinkDelivery::LinkDelivery(const LinkLayer& links, std::uint64_t seed)
    : links_(&links), seed_(seed) {
  const Graph& g = links.graph();
  probs_.resize(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    probs_[u].reserve(nbrs.size());
    for (NodeId v : nbrs) probs_[u].push_back(links.probability(u, v));
  }
}

bool LinkDelivery::delivers(const LinkAttempt& a) const {
  double p = 0.0;
  if (a.from < probs_.size()) {
    const auto nbrs = links_->graph().neighbors(a.from);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), a.to);
    if (it != nbrs.end() && *it == a.to) {
      p = probs_[a.from][static_cast<std::size_t>(it - nbrs.begin())];
    }
  }
  return attempt_uniform(seed_, a) < p;
}

UniformLossDelivery::UniformLossDelivery(double loss, std::uint64_t seed)
    : loss_(loss), seed_(seed) {
  KHOP_REQUIRE(loss >= 0.0 && loss < 1.0, "loss must be in [0, 1)");
}

bool UniformLossDelivery::delivers(const LinkAttempt& a) const {
  return attempt_uniform(seed_, a) >= loss_;
}

}  // namespace khop
