/// \file delivery.hpp
/// Radio-driven DeliveryModel implementations for the synchronous simulator.
///
/// The SyncEngine asks its DeliveryModel about every per-link attempt at the
/// receiver, as it delivers; a drop means the receiver simply never sees the
/// message. Every decision is a pure function of (seed, LinkAttempt): the
/// seed keys a counter-based Philox4x32-10 draw (common/rng.hpp) whose
/// counter is the attempt's (round, from, to, ordinal, attempt). No state
/// changes between calls, so the engine may evaluate attempts in any order,
/// on any thread, and a lossy run is still a pure function of (topology,
/// protocol, seed) - the same reproducibility contract as the ideal MAC.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/radio/link_layer.hpp"
#include "khop/sim/engine.hpp"

namespace khop {

/// The paper's ideal MAC: every attempt succeeds. Behaviourally identical
/// to running the engine with no delivery model at all.
class PerfectDelivery final : public DeliveryModel {
 public:
  bool delivers(const LinkAttempt& /*a*/) const override { return true; }
};

/// Bernoulli per-link delivery: an attempt over {from, to} succeeds with the
/// link layer's probability for that link. Links with probability 1 never
/// drop, so a unit-disk link layer reproduces ideal-MAC outcomes exactly.
/// Probabilities are copied adjacency-aligned at construction, so the
/// per-attempt lookup in the engine's innermost loop is an O(log deg)
/// search of one neighbor span, not a search of the whole link list.
class LinkDelivery final : public DeliveryModel {
 public:
  /// \p links must outlive this object.
  LinkDelivery(const LinkLayer& links, std::uint64_t seed);

  bool delivers(const LinkAttempt& a) const override;

 private:
  const LinkLayer* links_;
  std::uint64_t seed_;
  /// probs_[u][i] = delivery probability to graph().neighbors(u)[i].
  std::vector<std::vector<double>> probs_;
};

/// Link-independent Bernoulli loss (ambient interference / collisions):
/// every attempt is dropped with probability \p loss.
class UniformLossDelivery final : public DeliveryModel {
 public:
  /// \pre loss in [0, 1)
  UniformLossDelivery(double loss, std::uint64_t seed);

  bool delivers(const LinkAttempt& a) const override;

 private:
  double loss_;
  std::uint64_t seed_;
};

}  // namespace khop
