// Bit-exact equivalence suite for the SyncEngine round loop: one id range
// (run without a pool) and any number of concurrently stepped ranges (run
// with a ThreadPool) must reproduce the preserved flat-sort engine
// (sim/reference.hpp) exactly - delivery traces, stats, drops and retries -
// on random topologies, for ideal and lossy links, on generator and on
// Hilbert-relabeled ids. The flattened NeighborhoodDiscoveryAgent is
// cross-checked against the preserved std::map agent the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "khop/sim/reference.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

bool same_stats(const SimStats& a, const SimStats& b) {
  return a.rounds == b.rounds && a.transmissions == b.transmissions &&
         a.receptions == b.receptions && a.payload_words == b.payload_words &&
         a.drops == b.drops && a.retransmissions == b.retransmissions;
}

/// One delivered message as an agent saw it.
struct TraceEntry {
  std::size_t round;
  NodeId receiver;
  NodeId sender;
  std::uint16_t type;
  std::vector<std::int64_t> payload;

  bool operator==(const TraceEntry&) const = default;
};

/// Per-node trace store: each agent appends only to its own row, so the
/// same store works under the parallel executor (disjoint inboxes =>
/// disjoint rows). canonical() rebuilds the serial global delivery order.
struct TraceStore {
  explicit TraceStore(std::size_t n) : rows(n) {}
  std::vector<std::vector<TraceEntry>> rows;

  /// Global delivery sequence: (round, receiver) ascending with each row's
  /// internal order preserved - exactly the serial engine's processing
  /// order, and engine-independent for the parallel one.
  std::vector<TraceEntry> canonical() const {
    std::vector<TraceEntry> flat;
    for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
    std::stable_sort(flat.begin(), flat.end(),
                     [](const TraceEntry& a, const TraceEntry& b) {
                       return a.round != b.round ? a.round < b.round
                                                 : a.receiver < b.receiver;
                     });
    return flat;
  }
};

/// TTL-flood with tracing, production-engine flavor.
class TracingFloodAgent : public NodeAgent {
 public:
  TracingFloodAgent(NodeId id, Hops ttl, TraceStore* store)
      : id_(id), ttl_(ttl), store_(store) {}

  void on_start(NodeContext& ctx) override {
    ctx.broadcast(1, {static_cast<std::int64_t>(id_),
                      static_cast<std::int64_t>(ttl_)});
  }

  void on_message(NodeContext& ctx, const Message& msg) override {
    store_->rows[id_].push_back(TraceEntry{ctx.round(), id_, msg.sender,
                                           msg.type, msg.data});
    const auto origin = msg.data[0];
    const auto ttl = msg.data[1];
    if (ttl > 1 && !seen_.contains(origin)) {
      seen_[origin] = true;
      ctx.broadcast(1, {origin, ttl - 1});
    }
  }

 private:
  NodeId id_;
  Hops ttl_;
  TraceStore* store_;
  std::map<std::int64_t, bool> seen_;
};

/// The same protocol against the preserved reference engine.
class ReferenceTracingFloodAgent : public reference::NodeAgent {
 public:
  ReferenceTracingFloodAgent(NodeId id, Hops ttl, TraceStore* store)
      : id_(id), ttl_(ttl), store_(store) {}

  void on_start(reference::NodeContext& ctx) override {
    ctx.broadcast(1, {static_cast<std::int64_t>(id_),
                      static_cast<std::int64_t>(ttl_)});
  }

  void on_message(reference::NodeContext& ctx, const Message& msg) override {
    store_->rows[id_].push_back(TraceEntry{ctx.round(), id_, msg.sender,
                                           msg.type, msg.data});
    const auto origin = msg.data[0];
    const auto ttl = msg.data[1];
    if (ttl > 1 && !seen_.contains(origin)) {
      seen_[origin] = true;
      ctx.broadcast(1, {origin, ttl - 1});
    }
  }

 private:
  NodeId id_;
  Hops ttl_;
  TraceStore* store_;
  std::map<std::int64_t, bool> seen_;
};

/// Drops an attempt iff round + from + 2*to + ordinal + attempt is 0 mod 3.
/// A pure function, yet sensitive to every LinkAttempt field: an engine
/// that misnumbers a sender's messages (the ordinal follows the order the
/// sender's handlers transmit in), miscounts rounds or retries, or swaps
/// the link's ends loses different messages than the reference. Three
/// consecutive attempts cover every residue, so a retry budget of 2 always
/// recovers.
class ResidueDrop final : public DeliveryModel {
 public:
  bool delivers(const LinkAttempt& a) const override {
    const std::size_t key =
        a.round + a.from + 2 * std::size_t{a.to} + a.ordinal + a.attempt;
    return key % 3 != 0;
  }
};

struct RunResult {
  std::vector<TraceEntry> trace;
  SimStats stats;
  bool quiescent = false;
};

RunResult run_reference(const Graph& g, Hops ttl, std::size_t max_rounds,
                        const DeliveryModel* model,
                        std::size_t retry_budget) {
  TraceStore store(g.num_nodes());
  DeliveryOptions opts;
  opts.model = model;
  opts.retry_budget = retry_budget;
  reference::SyncEngine engine(
      g,
      [&](NodeId v) {
        return std::make_unique<ReferenceTracingFloodAgent>(v, ttl, &store);
      },
      opts);
  RunResult r;
  r.quiescent = engine.run(max_rounds);
  r.stats = engine.stats();
  r.trace = store.canonical();
  return r;
}

RunResult run_production(const Graph& g, Hops ttl, std::size_t max_rounds,
                         const DeliveryModel* model, std::size_t retry_budget,
                         ThreadPool* pool) {
  TraceStore store(g.num_nodes());
  DeliveryOptions opts;
  opts.model = model;
  opts.retry_budget = retry_budget;
  SyncEngine engine(
      g,
      [&](NodeId v) {
        return std::make_unique<TracingFloodAgent>(v, ttl, &store);
      },
      opts);
  RunResult r;
  r.quiescent = pool ? engine.run(max_rounds, *pool) : engine.run(max_rounds);
  r.stats = engine.stats();
  r.trace = store.canonical();
  return r;
}

/// Range counts for the pooled runs: run(max_rounds, pool) cuts one id
/// range per pool thread.
constexpr std::size_t kRangeCounts[] = {1, 2, 3, 8};

TEST(EngineEquivalence, SerialTraceMatchesReferenceIdeal) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_topology(40 + 13 * seed, 5.0, 400 + seed);
    const Hops ttl = 3;
    const RunResult want = run_reference(g, ttl, ttl + 2, nullptr, 0);
    const RunResult got = run_production(g, ttl, ttl + 2, nullptr, 0, nullptr);
    EXPECT_EQ(got.quiescent, want.quiescent) << "seed " << seed;
    EXPECT_TRUE(same_stats(got.stats, want.stats)) << "seed " << seed;
    EXPECT_EQ(got.trace, want.trace) << "seed " << seed;
  }
}

TEST(EngineEquivalence, ParallelTraceMatchesReferenceIdealAllThreadCounts) {
  const Graph g = random_topology(80, 6.0, 411);
  const Hops ttl = 3;
  const RunResult want = run_reference(g, ttl, ttl + 2, nullptr, 0);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    ThreadPool pool(threads);  // 0 = hardware concurrency
    const RunResult got = run_production(g, ttl, ttl + 2, nullptr, 0, &pool);
    EXPECT_EQ(got.quiescent, want.quiescent) << "threads " << threads;
    EXPECT_TRUE(same_stats(got.stats, want.stats)) << "threads " << threads;
    EXPECT_EQ(got.trace, want.trace) << "threads " << threads;
  }
}

TEST(EngineEquivalence, LossyOrderSensitiveModelMatchesReference) {
  // ResidueDrop ties each delivery to its send round, link and per-sender
  // ordinal: these expectations hold only if the engines number every
  // sender's messages, rounds and retries exactly like the reference.
  const Graph g = random_topology(60, 5.0, 421);
  const Hops ttl = 3;
  const ResidueDrop model;
  for (const std::size_t retry_budget : {std::size_t{0}, std::size_t{2}}) {
    const RunResult want =
        run_reference(g, ttl, ttl + 2, &model, retry_budget);
    if (retry_budget == 0) {
      // Without retries a third of the attempts are lost for good; with
      // budget 2 the retries always recover (three consecutive attempts
      // cover every residue), so the retransmission counter carries the
      // numbering-sensitivity instead.
      ASSERT_GT(want.stats.drops, 0u);
    } else {
      ASSERT_EQ(want.stats.drops, 0u);
      ASSERT_GT(want.stats.retransmissions, 0u);
    }

    const RunResult serial =
        run_production(g, ttl, ttl + 2, &model, retry_budget, nullptr);
    EXPECT_TRUE(same_stats(serial.stats, want.stats));
    EXPECT_EQ(serial.trace, want.trace);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
      ThreadPool pool(threads);
      const RunResult par =
          run_production(g, ttl, ttl + 2, &model, retry_budget, &pool);
      EXPECT_TRUE(same_stats(par.stats, want.stats)) << "threads " << threads;
      EXPECT_EQ(par.trace, want.trace) << "threads " << threads;
    }
  }
}

TEST(EngineEquivalence, LossyUniformSeededModelMatchesReference) {
  const Graph g = random_topology(70, 6.0, 431);
  const Hops ttl = 2;
  UniformLossDelivery ref_model(0.3, 909);
  const RunResult want = run_reference(g, ttl, ttl + 2, &ref_model, 1);
  ASSERT_GT(want.stats.drops, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ThreadPool pool(threads);
    UniformLossDelivery model(0.3, 909);
    const RunResult got = run_production(g, ttl, ttl + 2, &model, 1, &pool);
    EXPECT_TRUE(same_stats(got.stats, want.stats)) << "threads " << threads;
    EXPECT_EQ(got.trace, want.trace) << "threads " << threads;
  }
}

/// Exercises the hardest ordering cases of the broadcast-centric fast path:
/// in round 1 every node answers each hello with an addressed send AND two
/// broadcasts (one from on_message, one from on_round_end), so round-2
/// inboxes must interleave same-sender sends and broadcasts from both
/// phases purely by (type, payload).
template <typename Ctx, typename Base>
class MixedPhaseAgent : public Base {
 public:
  MixedPhaseAgent(NodeId id, TraceStore* store) : id_(id), store_(store) {}

  void on_start(Ctx& ctx) override {
    ctx.broadcast(1, {static_cast<std::int64_t>(id_)});
  }

  void on_message(Ctx& ctx, const Message& msg) override {
    store_->rows[id_].push_back(TraceEntry{ctx.round(), id_, msg.sender,
                                           msg.type, msg.data});
    if (ctx.round() == 1) {
      ctx.send(msg.sender, 2, {static_cast<std::int64_t>(id_)});
      ctx.broadcast(3, {static_cast<std::int64_t>(2 * id_)});
    }
  }

  void on_round_end(Ctx& ctx) override {
    if (ctx.round() == 1) {
      ctx.broadcast(4, {static_cast<std::int64_t>(id_)});
    }
  }

 private:
  NodeId id_;
  TraceStore* store_;
};

TEST(EngineEquivalence, MixedSendBroadcastPhasesMatchReference) {
  using Agent = MixedPhaseAgent<NodeContext, NodeAgent>;
  using RefAgent = MixedPhaseAgent<reference::NodeContext, reference::NodeAgent>;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(50 + 11 * seed, 5.0, 470 + seed);

    TraceStore ref_store(g.num_nodes());
    reference::SyncEngine ref_engine(g, [&](NodeId v) {
      return std::make_unique<RefAgent>(v, &ref_store);
    });
    EXPECT_TRUE(ref_engine.run(5));
    const std::vector<TraceEntry> want = ref_store.canonical();

    TraceStore serial_store(g.num_nodes());
    SyncEngine serial(g, [&](NodeId v) {
      return std::make_unique<Agent>(v, &serial_store);
    });
    EXPECT_TRUE(serial.run(5));
    EXPECT_TRUE(same_stats(serial.stats(), ref_engine.stats()))
        << "seed " << seed;
    EXPECT_EQ(serial_store.canonical(), want) << "seed " << seed;

    for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
      ThreadPool pool(threads);
      TraceStore par_store(g.num_nodes());
      SyncEngine parallel(g, [&](NodeId v) {
        return std::make_unique<Agent>(v, &par_store);
      });
      EXPECT_TRUE(parallel.run(5, pool));
      EXPECT_TRUE(same_stats(parallel.stats(), ref_engine.stats()))
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par_store.canonical(), want)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(EngineEquivalence, IsolatedBroadcasterQuiescesLikeReference) {
  // A degree-0 node's broadcast is a radio transmission with no receivers:
  // the reference engine enqueues nothing and quiesces at round 0. The
  // fast path must not let the recorded-but-undeliverable broadcast keep
  // the round loop alive (a round-end rebroadcaster on an isolated node
  // would otherwise never quiesce).
  const Graph g = Graph::from_edges(1, std::vector<std::pair<NodeId, NodeId>>{});

  class Beacon : public NodeAgent {
   public:
    void on_start(NodeContext& ctx) override { ctx.broadcast(1, {42}); }
    void on_message(NodeContext&, const Message&) override {}
    void on_round_end(NodeContext& ctx) override { ctx.broadcast(1, {42}); }
  };
  class RefBeacon : public reference::NodeAgent {
   public:
    void on_start(reference::NodeContext& ctx) override {
      ctx.broadcast(1, {42});
    }
    void on_message(reference::NodeContext&, const Message&) override {}
    void on_round_end(reference::NodeContext& ctx) override {
      ctx.broadcast(1, {42});
    }
  };

  reference::SyncEngine ref_engine(
      g, [](NodeId) { return std::make_unique<RefBeacon>(); });
  EXPECT_TRUE(ref_engine.run(8));

  SyncEngine engine(g, [](NodeId) { return std::make_unique<Beacon>(); });
  EXPECT_TRUE(engine.run(8));
  EXPECT_TRUE(same_stats(engine.stats(), ref_engine.stats()));
  EXPECT_EQ(engine.stats().rounds, 0u);
  EXPECT_EQ(engine.stats().transmissions, 1u);

  ThreadPool pool(2);
  SyncEngine par(g, [](NodeId) { return std::make_unique<Beacon>(); });
  EXPECT_TRUE(par.run(8, pool));
  EXPECT_TRUE(same_stats(par.stats(), ref_engine.stats()));
}

/// Broadcasts a hello; when \p fail is set, node 3 also attempts an illegal
/// addressed send so the run aborts mid-phase.
class BadFirstRunAgent : public NodeAgent {
 public:
  BadFirstRunAgent(NodeId id, const bool* fail) : id_(id), fail_(fail) {}
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(1, {static_cast<std::int64_t>(id_)});
    if (id_ == 3 && *fail_) ctx.send(0, 2, {});  // 0 is not a neighbor of 3
  }
  void on_message(NodeContext&, const Message&) override { ++received_; }
  std::size_t received_ = 0;

 private:
  NodeId id_;
  const bool* fail_;
};

TEST(EngineEquivalence, RerunAfterFailedParallelRunIsClean) {
  // An exception escaping a parallel phase leaves completed chunks'
  // outboxes populated; the next run() must not replay them.
  const Graph g = Graph::from_edges(
      4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}});

  bool fail = true;
  ThreadPool pool(2);
  SyncEngine engine(g, [&fail](NodeId v) {
    return std::make_unique<BadFirstRunAgent>(v, &fail);
  });
  EXPECT_THROW(engine.run(8, pool), InvalidArgument);

  fail = false;
  EXPECT_TRUE(engine.run(8, pool));
  // Clean run: every node hears exactly its degree's worth of hellos, with
  // no replayed messages from the aborted attempt.
  EXPECT_EQ(engine.stats().transmissions, 4u);
  EXPECT_EQ(engine.stats().receptions, 6u);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(dynamic_cast<BadFirstRunAgent&>(engine.agent(v)).received_,
              g.neighbors(v).size())
        << "node " << v;
  }
}

TEST(EngineEquivalence, RerunAfterParallelRunIsBitIdentical) {
  // One engine, three runs (serial, pooled, serial): every run must produce
  // the same trace from a fully reset engine and fresh agents.
  const Graph g = random_topology(50, 5.0, 441);
  const Hops ttl = 3;
  TraceStore store(g.num_nodes());
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<TracingFloodAgent>(v, ttl, &store);
  });

  EXPECT_TRUE(engine.run(ttl + 2));
  const std::vector<TraceEntry> first = store.canonical();
  const SimStats first_stats = engine.stats();

  ThreadPool pool(2);
  store = TraceStore(g.num_nodes());
  EXPECT_TRUE(engine.run(ttl + 2, pool));
  EXPECT_TRUE(same_stats(engine.stats(), first_stats));
  EXPECT_EQ(store.canonical(), first);

  store = TraceStore(g.num_nodes());
  EXPECT_TRUE(engine.run(ttl + 2));
  EXPECT_TRUE(same_stats(engine.stats(), first_stats));
  EXPECT_EQ(store.canonical(), first);
}

TEST(EngineEquivalence, FlatNeighborhoodAgentMatchesReferenceMapAgent) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(60 + 15 * seed, 6.0, 450 + seed);
    for (const Hops k : {1u, 2u, 3u}) {
      reference::SyncEngine ref_engine(g, [&](NodeId) {
        return std::make_unique<reference::NeighborhoodDiscoveryAgent>(k);
      });
      ASSERT_TRUE(ref_engine.run(2 * k + 2));

      SyncEngine engine(g, [&](NodeId) {
        return std::make_unique<NeighborhoodDiscoveryAgent>(k);
      });
      ASSERT_TRUE(engine.run(2 * k + 2));
      EXPECT_TRUE(same_stats(engine.stats(), ref_engine.stats()))
          << "seed " << seed << " k " << k;

      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto& ref_agent =
            dynamic_cast<const reference::NeighborhoodDiscoveryAgent&>(
                ref_engine.agent(v));
        const auto& agent = dynamic_cast<const NeighborhoodDiscoveryAgent&>(
            engine.agent(v));
        const auto items = agent.known().sorted_items();
        ASSERT_EQ(items.size(), ref_agent.known().size())
            << "seed " << seed << " k " << k << " node " << v;
        std::size_t i = 0;
        for (const auto& [origin, rec] : ref_agent.known()) {
          EXPECT_EQ(items[i].first, origin);
          EXPECT_EQ(items[i].second.dist, rec.dist);
          EXPECT_EQ(items[i].second.parent, rec.parent);
          ++i;
        }
      }
    }
  }
}

TEST(EngineEquivalence, FlatNeighborhoodAgentParallelMatchesSerial) {
  const Graph g = random_topology(90, 6.0, 461);
  const Hops k = 2;
  SyncEngine serial(g, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  });
  ASSERT_TRUE(serial.run(2 * k + 2));

  ThreadPool pool(0);
  SyncEngine parallel(g, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  });
  ASSERT_TRUE(parallel.run(2 * k + 2, pool));

  EXPECT_TRUE(same_stats(parallel.stats(), serial.stats()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a =
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(serial.agent(v));
    const auto& b =
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(parallel.agent(v));
    EXPECT_EQ(a.known().sorted_items(), b.known().sorted_items())
        << "node " << v;
  }
}

// The ShardedEquivalence cases cut the ids into several ranges: one per
// pool thread, each stepped by its own worker, with broadcasts read across
// the cuts in place and addressed sends and notices crossing them.

TEST(ShardedEquivalence, IdealTraceMatchesReferenceAllShardAndThreadCounts) {
  const Graph g = random_topology(90, 6.0, 501);
  const Hops ttl = 3;
  const RunResult want = run_reference(g, ttl, ttl + 2, nullptr, 0);
  const RunResult serial =
      run_production(g, ttl, ttl + 2, nullptr, 0, nullptr);
  EXPECT_EQ(serial.quiescent, want.quiescent);
  EXPECT_TRUE(same_stats(serial.stats, want.stats));
  EXPECT_EQ(serial.trace, want.trace);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8},
        std::size_t{0}}) {
    ThreadPool pool(threads);  // 0 = hardware concurrency
    const RunResult got = run_production(g, ttl, ttl + 2, nullptr, 0, &pool);
    EXPECT_EQ(got.quiescent, want.quiescent) << "threads " << threads;
    EXPECT_TRUE(same_stats(got.stats, want.stats)) << "threads " << threads;
    EXPECT_EQ(got.trace, want.trace) << "threads " << threads;
  }
}

TEST(ShardedEquivalence, LossyOrderSensitiveModelMatchesReference) {
  // ResidueDrop ties every delivery to its link, round and per-sender
  // ordinal: the ranged runs pass only if the receiving range evaluates
  // every copy - including copies read across a cut - under the numbering
  // the sender fixed at record time, retries in place.
  const Graph g = random_topology(72, 5.0, 511);
  const Hops ttl = 3;
  const ResidueDrop model;
  for (const std::size_t retry_budget : {std::size_t{0}, std::size_t{2}}) {
    const RunResult want =
        run_reference(g, ttl, ttl + 2, &model, retry_budget);
    if (retry_budget == 0) {
      ASSERT_GT(want.stats.drops, 0u);
    } else {
      ASSERT_GT(want.stats.retransmissions, 0u);
    }

    for (const std::size_t ranges : kRangeCounts) {
      ThreadPool pool(ranges);
      const RunResult par =
          run_production(g, ttl, ttl + 2, &model, retry_budget, &pool);
      EXPECT_TRUE(same_stats(par.stats, want.stats)) << "ranges " << ranges;
      EXPECT_EQ(par.trace, want.trace) << "ranges " << ranges;
    }
  }
}

TEST(ShardedEquivalence, LossyUniformSeededModelMatchesReference) {
  const Graph g = random_topology(70, 6.0, 521);
  const Hops ttl = 2;
  UniformLossDelivery ref_model(0.3, 909);
  const RunResult want = run_reference(g, ttl, ttl + 2, &ref_model, 1);
  ASSERT_GT(want.stats.drops, 0u);

  for (const std::size_t ranges : kRangeCounts) {
    ThreadPool pool(ranges);
    UniformLossDelivery model(0.3, 909);
    const RunResult got = run_production(g, ttl, ttl + 2, &model, 1, &pool);
    EXPECT_TRUE(same_stats(got.stats, want.stats)) << "ranges " << ranges;
    EXPECT_EQ(got.trace, want.trace) << "ranges " << ranges;
  }
}

TEST(ShardedEquivalence, LossyTracesIdenticalForEveryPoolOnBothIdOrders) {
  // Loss is decided at the receiver, so the range count must not move a
  // single drop or retry - on generator ids (scattered: most senders
  // notify foreign ranges) and on Hilbert ids (compact ranges: few do).
  GeneratorConfig gen;
  gen.num_nodes = 120;
  gen.target_degree = 6.0;
  Rng rng(561);
  const AdHocNetwork net = generate_network(gen, rng);
  const Graph hilbert = relabel(net.graph, sfc_relabeling(net.positions));
  const Hops ttl = 3;
  const UniformLossDelivery model(0.3, 4711);
  for (const Graph* g : {&net.graph, &hilbert}) {
    const char* order = g == &hilbert ? "hilbert" : "generator";
    const RunResult want = run_reference(*g, ttl, ttl + 2, &model, 1);
    ASSERT_GT(want.stats.drops, 0u) << order;
    ASSERT_GT(want.stats.retransmissions, 0u) << order;

    const RunResult serial =
        run_production(*g, ttl, ttl + 2, &model, 1, nullptr);
    EXPECT_EQ(serial.quiescent, want.quiescent) << order;
    EXPECT_TRUE(same_stats(serial.stats, want.stats)) << order;
    EXPECT_EQ(serial.trace, want.trace) << order;
    for (const std::size_t ranges : kRangeCounts) {
      ThreadPool pool(ranges);
      const RunResult got =
          run_production(*g, ttl, ttl + 2, &model, 1, &pool);
      EXPECT_EQ(got.quiescent, want.quiescent)
          << order << " ranges " << ranges;
      EXPECT_TRUE(same_stats(got.stats, want.stats))
          << order << " ranges " << ranges;
      EXPECT_EQ(got.trace, want.trace) << order << " ranges " << ranges;
    }
  }
}

TEST(ShardedEquivalence, MixedSendBroadcastPhasesMatchReference) {
  // Same-sender broadcasts and addressed sends from both handler phases
  // must interleave by (type, payload) in every receiver's inbox - here
  // with senders and receivers split across range cuts.
  using Agent = MixedPhaseAgent<NodeContext, NodeAgent>;
  using RefAgent =
      MixedPhaseAgent<reference::NodeContext, reference::NodeAgent>;
  const Graph g = random_topology(66, 5.0, 531);

  TraceStore ref_store(g.num_nodes());
  reference::SyncEngine ref_engine(g, [&](NodeId v) {
    return std::make_unique<RefAgent>(v, &ref_store);
  });
  EXPECT_TRUE(ref_engine.run(5));
  const std::vector<TraceEntry> want = ref_store.canonical();

  for (const std::size_t ranges : kRangeCounts) {
    ThreadPool pool(ranges);
    TraceStore store(g.num_nodes());
    SyncEngine engine(
        g, [&](NodeId v) { return std::make_unique<Agent>(v, &store); });
    EXPECT_TRUE(engine.run(5, pool));
    EXPECT_TRUE(same_stats(engine.stats(), ref_engine.stats()))
        << "ranges " << ranges;
    EXPECT_EQ(store.canonical(), want) << "ranges " << ranges;
  }
}

TEST(ShardedEquivalence, RerunIsBitIdentical) {
  // One engine, runs with changing range counts (3, 1, 8, 1): the reuse
  // contract must hold across re-cuts - fresh agents, reset range stats,
  // drained cross-range boxes.
  const Graph g = random_topology(60, 5.0, 541);
  const Hops ttl = 3;
  TraceStore store(g.num_nodes());
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<TracingFloodAgent>(v, ttl, &store);
  });

  ThreadPool three(3);
  EXPECT_TRUE(engine.run(ttl + 2, three));
  const std::vector<TraceEntry> first = store.canonical();
  const SimStats first_stats = engine.stats();

  store = TraceStore(g.num_nodes());
  EXPECT_TRUE(engine.run(ttl + 2));
  EXPECT_TRUE(same_stats(engine.stats(), first_stats));
  EXPECT_EQ(store.canonical(), first);

  ThreadPool eight(8);
  store = TraceStore(g.num_nodes());
  EXPECT_TRUE(engine.run(ttl + 2, eight));
  EXPECT_TRUE(same_stats(engine.stats(), first_stats));
  EXPECT_EQ(store.canonical(), first);

  store = TraceStore(g.num_nodes());
  EXPECT_TRUE(engine.run(ttl + 2));
  EXPECT_TRUE(same_stats(engine.stats(), first_stats));
  EXPECT_EQ(store.canonical(), first);
}

TEST(ShardedEquivalence, DiscoveryDigestsMatchSingleEngine) {
  // Protocol end state, not just traces: k-hop neighborhood tables from the
  // ranged runs must equal the single-range run element for element.
  const Graph g = random_topology(85, 6.0, 551);
  const Hops k = 2;
  SyncEngine single(g, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  });
  ASSERT_TRUE(single.run(2 * k + 2));

  for (const std::size_t ranges : kRangeCounts) {
    ThreadPool pool(ranges);
    SyncEngine engine(g, [&](NodeId) {
      return std::make_unique<NeighborhoodDiscoveryAgent>(k);
    });
    ASSERT_TRUE(engine.run(2 * k + 2, pool));
    EXPECT_TRUE(same_stats(engine.stats(), single.stats()))
        << "ranges " << ranges;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(single.agent(v));
      const auto& b =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
      EXPECT_EQ(a.known().sorted_items(), b.known().sorted_items())
          << "ranges " << ranges << " node " << v;
    }
  }
}

}  // namespace
}  // namespace khop
