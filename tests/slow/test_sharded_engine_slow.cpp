// Larger-n ranged-engine equivalence (slow ctest label): SyncEngine run
// over a ThreadPool - one contiguous id range per thread - against the
// single-range run at n ~ 1500 across the whole protocol stack - k-hop
// discovery (ideal and lossy), distributed clustering, and the AC-LMST
// gateway election - for range counts {2, 3, 8}. Companion to the
// ShardedEquivalence cases in tests/test_engine_equivalence.cpp at CI-fast
// sizes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "khop/cluster/priority.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace khop {
namespace {

/// Range counts: run(max_rounds, pool) cuts one id range per pool thread.
constexpr std::size_t kShardCounts[] = {2, 3, 8};

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

/// Variant-independent digest of one node's discovery result.
double known_digest(const NeighborhoodDiscoveryAgent& agent) {
  double sum = 0.0;
  agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
    sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
  });
  return sum;
}

TEST(ShardedEngineSlow, DiscoveryFloodMatchesSingleEngineAtScale) {
  const Graph g = random_topology(1500, 7.0, 8001);
  const Hops k = 2;
  const auto factory = [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  };

  SyncEngine single(g, factory);
  ASSERT_TRUE(single.run(2 * k + 2));
  std::vector<double> want(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    want[v] = known_digest(
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(single.agent(v)));
  }

  for (const std::size_t shards : kShardCounts) {
    ThreadPool pool(shards);
    SyncEngine engine(g, factory);
    ASSERT_TRUE(engine.run(2 * k + 2, pool));
    EXPECT_TRUE(same_stats(engine.stats(), single.stats()))
        << "shards " << shards;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(known_digest(dynamic_cast<const NeighborhoodDiscoveryAgent&>(
                    engine.agent(v))),
                want[v])
          << "shards " << shards << " node " << v;
    }
  }
}

TEST(ShardedEngineSlow, LossyDiscoveryMatchesSingleEngineAtScale) {
  const Graph g = random_topology(1500, 6.0, 8002);
  const Hops k = 2;
  const auto factory = [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  };

  const auto run_single = [&] {
    UniformLossDelivery model(0.25, 6160);
    DeliveryOptions opts;
    opts.model = &model;
    opts.retry_budget = 1;
    SyncEngine engine(g, factory, opts);
    engine.run(2 * k + 2);
    double digest = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      digest += known_digest(
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v)));
    }
    return std::pair(engine.stats(), digest);
  };
  const auto [want_stats, want_digest] = run_single();
  ASSERT_GT(want_stats.drops, 0u);

  for (const std::size_t shards : kShardCounts) {
    UniformLossDelivery model(0.25, 6160);
    DeliveryOptions opts;
    opts.model = &model;
    opts.retry_budget = 1;
    SyncEngine engine(g, factory, opts);
    ThreadPool pool(shards);
    engine.run(2 * k + 2, pool);
    EXPECT_TRUE(same_stats(engine.stats(), want_stats)) << "shards " << shards;
    double digest = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      digest += known_digest(
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v)));
    }
    EXPECT_EQ(digest, want_digest) << "shards " << shards;
  }
}

TEST(ShardedEngineSlow, ClusteringAndGatewayElectionMatchSingleEngine) {
  const Graph g = random_topology(1500, 7.0, 8003);
  const Hops k = 2;
  const auto prio = make_priorities(g, PriorityRule::kLowestId);
  const std::size_t cluster_rounds =
      3 * static_cast<std::size_t>(k) * (g.num_nodes() + 2) + 16;

  const auto cluster_factory = [&](NodeId v) {
    return std::make_unique<DistributedClusteringAgent>(
        k, prio[v], AffiliationRule::kDistanceBased);
  };

  // Single-engine baseline: clustering, then the gateway election seeded
  // from its result.
  SyncEngine single(g, cluster_factory);
  ASSERT_TRUE(single.run(cluster_rounds));
  std::vector<NodeId> want_head(g.num_nodes());
  std::vector<Hops> want_dist(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a =
        dynamic_cast<const DistributedClusteringAgent&>(single.agent(v));
    want_head[v] = a.head();
    want_dist[v] = a.dist_to_head();
  }

  const auto gateway_factory = [&](NodeId v) {
    return std::make_unique<LmstGatewayAgent>(k, want_head[v], want_dist[v]);
  };
  const std::size_t gateway_rounds = 16 * static_cast<std::size_t>(k) + 32;
  SyncEngine single_gw(g, gateway_factory);
  ASSERT_TRUE(single_gw.run(gateway_rounds));
  std::vector<bool> want_gateway(g.num_nodes());
  std::set<std::pair<NodeId, NodeId>> want_links;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& a = dynamic_cast<const LmstGatewayAgent&>(single_gw.agent(v));
    want_gateway[v] = a.marked_gateway();
    want_links.insert(a.kept_links().begin(), a.kept_links().end());
  }

  for (const std::size_t shards : kShardCounts) {
    ThreadPool pool(shards);

    SyncEngine cluster(g, cluster_factory);
    ASSERT_TRUE(cluster.run(cluster_rounds, pool));
    EXPECT_TRUE(same_stats(cluster.stats(), single.stats()))
        << "shards " << shards;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a =
          dynamic_cast<const DistributedClusteringAgent&>(cluster.agent(v));
      ASSERT_EQ(a.head(), want_head[v]) << "shards " << shards << " node " << v;
      ASSERT_EQ(a.dist_to_head(), want_dist[v])
          << "shards " << shards << " node " << v;
    }

    SyncEngine gw(g, gateway_factory);
    ASSERT_TRUE(gw.run(gateway_rounds, pool));
    EXPECT_TRUE(same_stats(gw.stats(), single_gw.stats()))
        << "shards " << shards;
    std::set<std::pair<NodeId, NodeId>> links;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a = dynamic_cast<const LmstGatewayAgent&>(gw.agent(v));
      ASSERT_EQ(a.marked_gateway(), want_gateway[v])
          << "shards " << shards << " node " << v;
      links.insert(a.kept_links().begin(), a.kept_links().end());
    }
    EXPECT_EQ(links, want_links) << "shards " << shards;
  }
}

}  // namespace
}  // namespace khop
