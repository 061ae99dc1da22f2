/// \file engine.hpp
/// Synchronous round-based simulator for distributed protocols.
///
/// Timing model: a message sent during round r (in on_start for r = 0, or in
/// on_message / on_round_end handlers) is delivered at round r+1. Hence a
/// flood started at round 0 reaches hop-h nodes exactly at round h, which is
/// how the protocol implementations schedule their phase boundaries.
///
/// Determinism: nodes process their inboxes in ascending node order, and
/// each inbox is sorted by (sender, type, payload). Every protocol result is
/// therefore a pure function of the topology (and, under a DeliveryModel, of
/// the model's seed) - the property the test suite uses to cross-validate
/// protocols against the centralized algorithms and sim/reference.hpp.
///
/// Round loop: the node ids are cut into contiguous ranges, one per worker
/// (run(max_rounds) is one range; run(max_rounds, pool) cuts
/// pool.num_threads() of them). Every round, each range does its whole share
/// in one step: deliver its receivers' inboxes, run on_round_end over its
/// nodes, then seal what its nodes sent. There is one delivery path:
///  * A broadcast is recorded once, in the sender's range; sealing groups a
///    range's records by sender and sorts each group by (type, payload).
///    Receivers in any range walk their ascending adjacency and read each
///    neighbor's sealed group in place - no per-receiver copy exists.
///  * Only two things cross a range: a per-(sender, destination range)
///    notice, so the receiving range knows which foreign broadcasters reach
///    it, and addressed sends. The receiving range drains both itself.
///  * Sides flip in lockstep across ranges (round parity), so everything a
///    round reads was sealed before the barrier that ended the previous
///    round and is cleared only by its owner two rounds later.
/// The inbox each receiver sees is exactly the (sender, type, payload) order
/// of the preserved flat-sort engine, for any range count.
///
/// Loss: a DeliveryModel is a pure const decision on (round, from, to,
/// per-sender message ordinal, attempt) - see radio/delivery.hpp. The
/// receiver evaluates it inside the delivery walk above, so lossy runs take
/// the same path, in parallel, and stay bit-identical for any range count.
///
/// Reuse contract: run() may be called repeatedly on one engine. Every call
/// is an independent execution - round counter, stats, pending records and
/// payload arenas are fully reset at entry, and the agents are re-created
/// from the factory (which the engine stores; anything it captures by
/// reference must outlive the engine). Agent references obtained via
/// agent() before a re-run are invalidated by the next run().
///
/// Thread-safety contract for agents: handlers run on the worker that owns
/// their node's range, concurrently with other ranges' handlers; agents
/// must not share mutable state across nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "khop/graph/graph.hpp"
#include "khop/sim/message.hpp"

namespace khop {

class SyncEngine;
class ThreadPool;

namespace detail {
struct EngineRange;
struct BcastRec;
}  // namespace detail

/// One per-link transmission attempt, named by everything that makes it
/// distinct within a run. All fields are fixed by the protocol execution
/// itself, never by executor scheduling.
struct LinkAttempt {
  std::size_t round = 0;      ///< round the message was sent in (0 = on_start)
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint32_t ordinal = 0;  ///< sender's transmission index in that round
  std::uint32_t attempt = 0;  ///< 0 = first try, i = i-th link retry
};

/// Decides the fate of one per-link transmission attempt. Implementations
/// must be pure functions of the attempt (plus their construction
/// arguments): engines call delivers() from worker threads, concurrently and
/// in no particular order. Concrete radio-driven models live in
/// khop/radio/delivery.hpp.
class DeliveryModel {
 public:
  virtual ~DeliveryModel() = default;

  /// True iff \p a reaches its receiver.
  virtual bool delivers(const LinkAttempt& a) const = 0;
};

/// Lossy-delivery configuration for a SyncEngine.
struct DeliveryOptions {
  /// Non-owning; must outlive the engine. nullptr = the paper's ideal MAC.
  const DeliveryModel* model = nullptr;
  /// Extra attempts per dropped per-link delivery (ARQ-style link retries).
  /// Each retry is recorded in SimStats::retransmissions; a delivery that
  /// still fails after the budget counts once in SimStats::drops.
  std::size_t retry_budget = 0;
};

/// Per-node handle the engine passes to agent callbacks.
class NodeContext {
 public:
  NodeId id() const noexcept { return id_; }
  std::size_t round() const noexcept;
  std::span<const NodeId> neighbors() const;

  /// Local broadcast: delivered to every neighbor next round. The words are
  /// copied (interned) before the call returns; the span need only be valid
  /// for the duration of the call.
  void broadcast(std::uint16_t type, std::span<const std::int64_t> data);
  void broadcast(std::uint16_t type, std::initializer_list<std::int64_t> data) {
    broadcast(type, std::span<const std::int64_t>(data.begin(), data.size()));
  }

  /// Addressed send to a direct neighbor: delivered next round.
  /// \pre `to` is a neighbor of this node
  void send(NodeId to, std::uint16_t type, std::span<const std::int64_t> data);
  void send(NodeId to, std::uint16_t type,
            std::initializer_list<std::int64_t> data) {
    send(to, type, std::span<const std::int64_t>(data.begin(), data.size()));
  }

 private:
  friend class SyncEngine;
  NodeContext(SyncEngine& engine, detail::EngineRange& range, NodeId id)
      : engine_(&engine), range_(&range), id_(id) {}
  SyncEngine* engine_;
  detail::EngineRange* range_;  ///< the range owning id_ (records land here)
  NodeId id_;
};

/// A protocol's per-node state machine.
class NodeAgent {
 public:
  virtual ~NodeAgent() = default;

  /// Round 0: initial sends.
  virtual void on_start(NodeContext& /*ctx*/) {}

  /// One delivered message (round >= 1).
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;

  /// End of every round (round >= 1), after all deliveries of that round.
  virtual void on_round_end(NodeContext& /*ctx*/) {}

  /// Termination hint: the engine stops when every agent is finished and no
  /// messages are in flight.
  virtual bool finished() const { return true; }
};

/// Creates the agent for one node. The engine retains the factory and calls
/// it again, in ascending node order, to re-create agents on re-entry.
using AgentFactory = std::function<std::unique_ptr<NodeAgent>(NodeId)>;

/// The simulator. Owns one agent per node.
class SyncEngine {
 public:
  using AgentFactory = khop::AgentFactory;

  /// \p delivery configures lossy links; the default is the ideal MAC.
  /// The factory is retained: re-running the engine re-creates the agents
  /// through it (see the file-level reuse contract).
  SyncEngine(const Graph& g, const AgentFactory& factory,
             const DeliveryOptions& delivery = {});
  ~SyncEngine();

  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  /// Runs until quiescence (all agents finished, nothing in flight) or
  /// \p max_rounds. Returns true iff it reached quiescence.
  bool run(std::size_t max_rounds);

  /// The same round loop over pool.num_threads() contiguous id ranges,
  /// stepped concurrently: bit-identical traces and stats for any thread
  /// count. An exception thrown by a handler surfaces from the lowest range
  /// that threw.
  bool run(std::size_t max_rounds, ThreadPool& pool);

  const SimStats& stats() const noexcept { return stats_; }
  std::size_t round() const noexcept { return round_; }

  NodeAgent& agent(NodeId v);
  const NodeAgent& agent(NodeId v) const;

  const Graph& graph() const noexcept { return *graph_; }

 private:
  friend class NodeContext;
  using Range = detail::EngineRange;

  /// Sender-side bookkeeping for the per-round message ordinal.
  struct TxCount {
    std::uint32_t round = 0;
    std::uint32_t count = 0;
  };

  const Graph* graph_;
  DeliveryOptions delivery_;
  AgentFactory factory_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<Range> ranges_;
  /// Per-node arrays shared by all ranges; each range writes only its own
  /// nodes' entries. Indexed [side][node] where double-buffered.
  std::vector<std::uint32_t> bcast_count_[2];  ///< broadcasts per sender
  std::vector<const detail::BcastRec*> bcast_first_[2];  ///< sealed group
  std::vector<std::uint32_t> cursor_;          ///< seal scatter cursors
  std::vector<TxCount> tx_;                    ///< ordinal source
  std::size_t round_ = 0;
  SimStats stats_;
  bool ran_ = false;

  /// (Re-)creates every agent through the factory, ascending.
  void create_agents();

  /// Cuts [0, n) into \p num_ranges contiguous ranges and clears every
  /// record, counter and arena; re-creates agents on re-entry.
  void reset_for_run(std::size_t num_ranges);

  /// Index of the range owning \p v.
  std::size_t range_of(NodeId v) const;

  /// One range's share of the current round: deliver (unless this is the
  /// on_start step), run the node callbacks, seal the records.
  void step(Range& r, bool deliver);

  void record_broadcast(Range& r, NodeId from, std::uint16_t type,
                        std::span<const std::int64_t> data);
  void record_send(Range& r, NodeId from, NodeId to, std::uint16_t type,
                   std::span<const std::int64_t> data);
  std::uint32_t next_ordinal(NodeId from);

  /// Builds r's ascending receiver set and sorted addressed-send inbox from
  /// side \p read's records of every range.
  void gather(Range& r, unsigned read);

  /// Delivers side \p read's messages to receiver \p d in canonical order;
  /// \p cursor walks r's sorted addressed-send inbox across receivers.
  void deliver_to(Range& r, NodeId d, unsigned read, std::size_t& cursor);

  /// Groups r's side-\p side broadcast log by sender for in-place reads.
  void seal(Range& r, unsigned side);

  /// Runs the delivery model for the first attempt \p a and any retries,
  /// accounting into \p st. True iff some attempt got through.
  bool survives(SimStats& st, LinkAttempt a) const;

  bool run_impl(std::size_t max_rounds, ThreadPool* pool);
};

}  // namespace khop
