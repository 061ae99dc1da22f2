/// \file reference.hpp
/// The original synchronous engine, preserved as an independent oracle.
///
/// The production SyncEngine (engine.hpp) records each broadcast once and
/// lets receivers in any id range read it in place; this copy keeps the
/// original structure — one flat O(M log M) comparison sort over every
/// in-flight message per round, whose comparator lexicographically compares
/// payload words — and the original std::map-backed
/// NeighborhoodDiscoveryAgent. They exist for the bit-exact equivalence suite
/// (test_engine_equivalence) and as the `legacy` baseline the perf-regression
/// harness measures `engine_flood` speedups against. Not for production call
/// sites.
///
/// One deliberate change from the original: loss follows the stateless
/// DeliveryModel contract. Every per-link copy is queued with its send round
/// and the sender's per-round message ordinal, and the model is asked at
/// delivery. A round whose every transmission is dropped therefore still
/// runs (its messages were in flight), exactly as in the production engine.
///
/// Shared vocabulary (Message, PayloadView, PayloadArena, SimStats,
/// LinkAttempt, DeliveryModel, DeliveryOptions) comes from the production
/// headers; only the engine classes and the discovery agent are duplicated.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "khop/graph/graph.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/message.hpp"

namespace khop::reference {

class SyncEngine;

/// Per-node handle the reference engine passes to agent callbacks.
class NodeContext {
 public:
  NodeId id() const noexcept { return id_; }
  std::size_t round() const noexcept;
  std::span<const NodeId> neighbors() const;

  /// Local broadcast: delivered to every neighbor next round.
  void broadcast(std::uint16_t type, std::vector<std::int64_t> data);

  /// Addressed send to a direct neighbor: delivered next round.
  /// \pre `to` is a neighbor of this node
  void send(NodeId to, std::uint16_t type, std::vector<std::int64_t> data);

 private:
  friend class SyncEngine;
  NodeContext(SyncEngine& engine, NodeId id) : engine_(&engine), id_(id) {}
  SyncEngine* engine_;
  NodeId id_;
};

/// A protocol's per-node state machine (reference-engine flavor).
class NodeAgent {
 public:
  virtual ~NodeAgent() = default;
  virtual void on_start(NodeContext& /*ctx*/) {}
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;
  virtual void on_round_end(NodeContext& /*ctx*/) {}
  virtual bool finished() const { return true; }
};

/// The original simulator: flat double-buffered delivery queue and one
/// whole-queue (to, sender, type, payload) sort per round. Single-run (it
/// predates the re-entry fix; construct a fresh instance per run).
class SyncEngine {
 public:
  using AgentFactory = std::function<std::unique_ptr<NodeAgent>(NodeId)>;

  SyncEngine(const Graph& g, const AgentFactory& factory,
             const DeliveryOptions& delivery = {});

  bool run(std::size_t max_rounds);

  const SimStats& stats() const noexcept { return stats_; }
  std::size_t round() const noexcept { return round_; }

  NodeAgent& agent(NodeId v);
  const NodeAgent& agent(NodeId v) const;

  const Graph& graph() const noexcept { return *graph_; }

 private:
  friend class NodeContext;

  struct Routed {
    NodeId to = kInvalidNode;
    Message msg;
    std::size_t round = 0;      ///< round the message was sent in
    std::uint32_t ordinal = 0;  ///< sender's transmission index in it
  };

  const Graph* graph_;
  DeliveryOptions delivery_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<Routed> queues_[2];
  PayloadArena arenas_[2];
  unsigned write_ = 0;
  std::size_t round_ = 0;
  std::vector<std::uint32_t> sent_;  ///< per-node transmissions this round
  SimStats stats_;

  /// Counts one transmission by \p from and returns its ordinal.
  std::uint32_t transmit(NodeId from, std::size_t words);
  void enqueue(NodeId from, NodeId to, std::uint16_t type, PayloadView data,
               std::uint32_t ordinal);
  /// Asks the delivery model about \p r (first attempt plus retries).
  bool survives(const Routed& r);
};

/// The pre-PR5 k-hop discovery agent, verbatim: per-node
/// std::map<NodeId, Known> with one try_emplace per delivered HELLO.
class NeighborhoodDiscoveryAgent : public NodeAgent {
 public:
  struct Known {
    Hops dist = kUnreachable;
    NodeId parent = kInvalidNode;
  };

  explicit NeighborhoodDiscoveryAgent(Hops k) : k_(k) {}

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;

  const std::map<NodeId, Known>& known() const noexcept { return known_; }

 private:
  static constexpr std::uint16_t kHello = 1;

  Hops k_;
  std::map<NodeId, Known> known_;
};

}  // namespace khop::reference
