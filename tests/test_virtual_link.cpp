// Unit tests for canonical virtual links (shortest gateway paths), including
// the horizon-bounded and parallel builds introduced in PR 4.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/gateway/reference.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

void expect_links_eq(const VirtualLinkMap& got, const VirtualLinkMap& want) {
  ASSERT_EQ(got.all().size(), want.all().size());
  for (std::size_t i = 0; i < got.all().size(); ++i) {
    const VirtualLink& a = got.all()[i];
    const VirtualLink& b = want.all()[i];
    EXPECT_EQ(a.u, b.u) << "link " << i;
    EXPECT_EQ(a.v, b.v) << "link " << i;
    EXPECT_EQ(a.hops, b.hops) << "link " << i;
    EXPECT_EQ(a.path, b.path) << "link " << i;
  }
}

TEST(VirtualLink, PathAndHopsOnChain) {
  const Graph g =
      Graph::from_edges(5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto links = VirtualLinkMap::build(g, {{0, 4}});
  const VirtualLink& l = links.link(0, 4);
  EXPECT_EQ(l.u, 0u);
  EXPECT_EQ(l.v, 4u);
  EXPECT_EQ(l.hops, 4u);
  EXPECT_EQ(l.path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(VirtualLink, UnorderedLookup) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{2, 0}});
  EXPECT_TRUE(links.contains(0, 2));
  EXPECT_TRUE(links.contains(2, 0));
  EXPECT_EQ(links.link(2, 0).hops, 2u);
  EXPECT_EQ(links.link(0, 2).path.front(), 0u);  // rooted at smaller id
}

TEST(VirtualLink, CanonicalTieBreakPicksSmallInterior) {
  // Two parallel 2-hop routes 0-1-3 and 0-2-3: the canonical path must use
  // interior node 1.
  const Graph g =
      Graph::from_edges(4, EdgeList{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto links = VirtualLinkMap::build(g, {{0, 3}});
  EXPECT_EQ(links.link(0, 3).path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(VirtualLink, MissingPairThrows) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{0, 1}});
  EXPECT_THROW(links.link(0, 2), InvalidArgument);
  EXPECT_FALSE(links.contains(0, 2));
}

TEST(VirtualLink, RejectsSelfPair) {
  const Graph g = Graph::from_edges(2, EdgeList{{0, 1}});
  EXPECT_THROW(VirtualLinkMap::build(g, {{1, 1}}), InvalidArgument);
}

TEST(VirtualLink, DisconnectedEndpointsThrow) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  EXPECT_THROW(VirtualLinkMap::build(g, {{0, 3}}), NotConnected);
}

TEST(VirtualLink, HopsMatchBfsOnRandomNetworks) {
  Rng rng(601);
  GeneratorConfig cfg;
  cfg.num_nodes = 80;
  const AdHocNetwork net = generate_network(cfg, rng);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) pairs.emplace_back(u, v);
  }
  const auto links = VirtualLinkMap::build(net.graph, pairs);
  for (const auto& [u, v] : pairs) {
    const auto tree = bfs(net.graph, u);
    const VirtualLink& l = links.link(u, v);
    EXPECT_EQ(l.hops, tree.dist[v]);
    EXPECT_EQ(l.path.size(), l.hops + 1u);
    EXPECT_EQ(l.path.front(), u);
    EXPECT_EQ(l.path.back(), v);
    for (std::size_t i = 0; i + 1 < l.path.size(); ++i) {
      EXPECT_TRUE(net.graph.has_edge(l.path[i], l.path[i + 1]));
    }
  }
}

TEST(VirtualLink, DuplicatePairsDeduplicated) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{0, 2}, {2, 0}, {0, 2}});
  EXPECT_EQ(links.all().size(), 1u);
}

TEST(VirtualLink, EmptyPairsBuildEmptyMap) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  Workspace ws;
  ThreadPool pool(2);
  for (const VirtualLinkMap& links :
       {VirtualLinkMap::build(g, {}),
        VirtualLinkMap::build_bounded(g, {}, 2, ws),
        VirtualLinkMap::build_bounded(g, {}, 2, ws, &pool)}) {
    EXPECT_TRUE(links.all().empty());
    EXPECT_FALSE(links.contains(0, 1));
    EXPECT_EQ(links.bounded_fallbacks(), 0u);
  }
}

TEST(VirtualLink, BoundedDuplicatesAndReverseDeduplicated) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  Workspace ws;
  ThreadPool pool(2);
  const auto serial =
      VirtualLinkMap::build_bounded(g, {{0, 2}, {2, 0}, {0, 2}}, 2, ws);
  const auto par =
      VirtualLinkMap::build_bounded(g, {{0, 2}, {2, 0}, {0, 2}}, 2, ws, &pool);
  EXPECT_EQ(serial.all().size(), 1u);
  EXPECT_EQ(par.all().size(), 1u);
}

TEST(VirtualLink, BoundedExactlyAtHorizonNeedsNoFallback) {
  // Chain 0..5: pair (0,5) sits at exactly 5 hops. With k = 2 the paper's
  // horizon is 2k+1 = 5, so the boundary case must resolve inside the
  // bounded sweep.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Workspace ws;
  const auto links = VirtualLinkMap::build_bounded(g, {{0, 5}}, 5, ws);
  EXPECT_EQ(links.bounded_fallbacks(), 0u);
  EXPECT_EQ(links.link(0, 5).hops, 5u);
  EXPECT_EQ(links.link(0, 5).path, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(VirtualLink, BoundedBeyondHorizonFallsBackUnboundedExactly) {
  // Same chain, horizon 4 < dist 5: the source reruns unbounded and the
  // result must be byte-identical to the unbounded build.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Workspace ws;
  const auto bounded =
      VirtualLinkMap::build_bounded(g, {{0, 5}, {0, 3}}, 4, ws);
  EXPECT_EQ(bounded.bounded_fallbacks(), 1u);
  expect_links_eq(bounded, VirtualLinkMap::build(g, {{0, 5}, {0, 3}}));
}

TEST(VirtualLink, BoundedDisconnectedEndpointsStillThrow) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  Workspace ws;
  ThreadPool pool(2);
  EXPECT_THROW(VirtualLinkMap::build_bounded(g, {{0, 3}}, 2, ws),
               NotConnected);
  EXPECT_THROW(VirtualLinkMap::build_bounded(g, {{0, 3}}, 2, ws, &pool),
               NotConnected);
}

TEST(VirtualLink, BoundedAndParallelMatchUnboundedOnRandomNetworks) {
  Rng rng(602);
  GeneratorConfig cfg;
  cfg.num_nodes = 90;
  const AdHocNetwork net = generate_network(cfg, rng);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 14; ++u) {
    for (NodeId v = u + 1; v < 14; v += 2) pairs.emplace_back(u, v);
  }
  const auto want = reference::build_virtual_links(net.graph, pairs);
  Workspace ws;
  // Unbounded horizon, a generous bound, and a tight bound (with fallback)
  // must all match the reference oracle; so must every thread count.
  for (const Hops horizon : {kUnreachable, Hops{20}, Hops{2}}) {
    expect_links_eq(
        VirtualLinkMap::build_bounded(net.graph, pairs, horizon, ws), want);
    for (const std::size_t threads : {1u, 2u, 0u}) {
      ThreadPool pool(threads);
      expect_links_eq(
          VirtualLinkMap::build_bounded(net.graph, pairs, horizon, ws, &pool),
          want);
    }
  }
}

TEST(VirtualLink, FromLinksRejectsBadInput) {
  VirtualLink swapped;
  swapped.u = 3;
  swapped.v = 1;
  swapped.hops = 1;
  std::vector<VirtualLink> bad;
  bad.push_back(swapped);
  EXPECT_THROW(VirtualLinkMap::from_links(std::move(bad)), InvalidArgument);

  VirtualLink l;
  l.u = 1;
  l.v = 3;
  l.hops = 1;
  std::vector<VirtualLink> dup;
  dup.push_back(l);
  dup.push_back(l);
  EXPECT_THROW(VirtualLinkMap::from_links(std::move(dup)), InvalidArgument);
}

}  // namespace
}  // namespace khop
