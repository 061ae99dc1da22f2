// Section-3.3 maintenance (a member, gateway or head switches off or on, and
// the affected clusterheads repair locally), driven through ChurnEngine. A
// join is "fail x, then join x with the chosen neighbors" because ids are
// capacity-stable. After every event the engine must pass its own audit()
// AND an independent validity check: strict domination of every alive node
// plus validate_backbone on each component of the alive-induced graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_reference.hpp"
#include "khop/gateway/validate.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/subgraph.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

Graph make_network(std::uint64_t seed, std::size_t n, double degree = 0.0) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  if (degree > 0.0) cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

ChurnEvent fail(NodeId v) {
  ChurnEvent e;
  e.type = ChurnEventType::kFail;
  e.a = v;
  return e;
}

ChurnEvent join(NodeId v, std::vector<NodeId> neighbors) {
  ChurnEvent e;
  e.type = ChurnEventType::kJoin;
  e.a = v;
  e.neighbors = std::move(neighbors);
  return e;
}

/// Validity of a maintained state, checked without the engine's own code:
/// every alive node's head is an alive head exactly dist_to_head <= k hops
/// away, the backbone's heads are exactly the alive heads, and every
/// connected component of the alive-induced graph carries a backbone that
/// passes validate_backbone. Returns the number of components.
std::size_t expect_valid_state(const DynamicGraph& g, Hops k,
                               const std::vector<NodeId>& head_of,
                               const std::vector<Hops>& dist,
                               const Backbone& b, const std::string& label) {
  const Graph snap = g.snapshot();
  const std::vector<NodeId> alive = g.alive_nodes();
  std::vector<NodeId> heads;
  for (NodeId v : alive) {
    const NodeId h = head_of[v];
    EXPECT_TRUE(h != kInvalidNode && g.alive(h) && head_of[h] == h)
        << label << ": node " << v << " has no live head";
    if (h == v) heads.push_back(v);
  }
  for (NodeId h : heads) {
    const BfsTree ball = bfs_bounded(snap, h, k);
    for (NodeId v : alive) {
      if (head_of[v] != h) continue;
      EXPECT_LE(dist[v], k) << label << ": node " << v;
      EXPECT_EQ(ball.dist[v], dist[v]) << label << ": node " << v;
    }
  }
  EXPECT_EQ(b.heads, heads) << label;

  const Components comps = connected_components(snap);
  std::map<NodeId, std::vector<NodeId>> by_comp;
  for (NodeId v : alive) by_comp[comps.label[v]].push_back(v);
  for (const auto& [label_id, nodes] : by_comp) {
    const InducedSubgraph sub = induced_subgraph(snap, nodes);
    Backbone part;
    part.pipeline = b.pipeline;
    part.spec = b.spec;
    for (NodeId h : b.heads) {
      if (sub.new_id[h] != kInvalidNode) part.heads.push_back(sub.new_id[h]);
    }
    for (NodeId w : b.gateways) {
      if (sub.new_id[w] != kInvalidNode) {
        part.gateways.push_back(sub.new_id[w]);
      }
    }
    for (const auto& [u, v] : b.virtual_links) {
      if (sub.new_id[u] != kInvalidNode || sub.new_id[v] != kInvalidNode) {
        part.virtual_links.emplace_back(sub.new_id[u], sub.new_id[v]);
      }
    }
    EXPECT_EQ(validate_backbone(sub.graph, part), "") << label;
  }
  return by_comp.size();
}

/// audit() (bit-exact against full recomputation) plus the independent
/// validity check above, including the engine's component count.
void expect_valid(ChurnEngine& eng, const std::string& label = "") {
  EXPECT_EQ(eng.audit(), "") << label;
  const Clustering& c = eng.clustering();
  EXPECT_EQ(expect_valid_state(eng.graph(), eng.k(), c.head_of,
                               c.dist_to_head, eng.backbone(), label),
            eng.num_components())
      << label;
}

enum class Role { kMember, kGateway, kHead };

Role role_of(const ChurnEngine& eng, NodeId v) {
  if (eng.clustering().head_of[v] == v) return Role::kHead;
  const auto& gw = eng.backbone().gateways;
  return std::binary_search(gw.begin(), gw.end(), v) ? Role::kGateway
                                                     : Role::kMember;
}

NodeId find_role(const ChurnEngine& eng, Role role) {
  for (NodeId v = 0; v < eng.graph().capacity(); ++v) {
    if (role_of(eng, v) == role) return v;
  }
  return kInvalidNode;
}

// ---------------------------------------------------------------------------
// Failures (switch-off)

TEST(Classify, RolesMatchBackbone) {
  ChurnEngine eng(make_network(1101, 100), 2, Pipeline::kAcLmst);
  EXPECT_EQ(eng.backbone().heads, eng.clustering().heads);
  for (NodeId g : eng.backbone().gateways) {
    EXPECT_TRUE(eng.graph().alive(g));
    EXPECT_EQ(role_of(eng, g), Role::kGateway);
  }
  EXPECT_NE(find_role(eng, Role::kMember), kInvalidNode);
  expect_valid(eng);
}

TEST(Repair, PlainMemberFailureKeepsCds) {
  ChurnEngine eng(make_network(1102, 100), 2, Pipeline::kAcLmst);
  const NodeId victim = find_role(eng, Role::kMember);
  ASSERT_NE(victim, kInvalidNode);
  const std::vector<NodeId> heads = eng.clustering().heads;
  const std::size_t gateways = eng.backbone().gateways.size();
  const ChurnEventReport rep = eng.apply(fail(victim));
  ASSERT_EQ(rep.component_delta, 0) << "victim was a cut vertex";

  expect_valid(eng);
  // No survivor lost domination, so the clusters and CDS stay as they were.
  EXPECT_EQ(rep.orphans, 0u);
  EXPECT_EQ(rep.new_heads, 0u);
  EXPECT_EQ(eng.clustering().heads, heads);
  EXPECT_EQ(eng.backbone().gateways.size(), gateways);
}

TEST(Repair, GatewayFailureRebuildsValidBackbone) {
  ChurnEngine eng(make_network(1103, 100), 2, Pipeline::kAcLmst);
  const NodeId victim = find_role(eng, Role::kGateway);
  ASSERT_NE(victim, kInvalidNode);
  const std::size_t heads = eng.clustering().heads.size();
  const ChurnEventReport rep = eng.apply(fail(victim));
  ASSERT_EQ(rep.component_delta, 0) << "victim was a cut vertex";

  expect_valid(eng);
  // Clustering is preserved: same number of heads, none elected.
  EXPECT_EQ(eng.clustering().heads.size(), heads);
  EXPECT_EQ(rep.new_heads, 0u);
  // The heads whose links used the dead gateway re-ran their selection.
  EXPECT_GE(rep.heads_resweeped, 1u);
}

TEST(Repair, ClusterheadFailureReclustersOrphans) {
  ChurnEngine eng(make_network(1104, 100), 2, Pipeline::kAcLmst);
  const NodeId victim = find_role(eng, Role::kHead);
  ASSERT_NE(victim, kInvalidNode);
  const std::vector<NodeId> head_of = eng.clustering().head_of;
  const auto cluster_size = static_cast<std::size_t>(
      std::count(head_of.begin(), head_of.end(), victim));
  const std::vector<NodeId> heads = eng.clustering().heads;
  const ChurnEventReport rep = eng.apply(fail(victim));
  ASSERT_EQ(rep.component_delta, 0) << "victim was a cut vertex";

  expect_valid(eng);
  // A head failure orphans exactly its cluster; every other head survives.
  EXPECT_EQ(rep.orphans, cluster_size - 1);
  for (NodeId h : heads) {
    if (h != victim) EXPECT_EQ(eng.clustering().head_of[h], h);
  }
  for (NodeId v : eng.graph().alive_nodes()) {
    EXPECT_NE(eng.clustering().head_of[v], kInvalidNode);
  }
}

TEST(Repair, RepairedDominationMostlyHolds) {
  // After a head failure every survivor is dominated again: orphans join a
  // surviving head within k or elect new heads.
  ChurnEngine eng(make_network(1105, 100), 2, Pipeline::kAcLmst);
  const NodeId victim = find_role(eng, Role::kHead);
  ASSERT_NE(victim, kInvalidNode);
  eng.apply(fail(victim));
  for (NodeId v : eng.graph().alive_nodes()) {
    EXPECT_LE(eng.clustering().dist_to_head[v], eng.k());
  }
  expect_valid(eng);
}

TEST(Repair, AllFailureClassesAcrossManyNodes) {
  // The first 20 nodes, each failed alone on the original network: heads,
  // gateways and plain members, cut vertices included.
  const Graph g = make_network(1106, 80);
  std::size_t seen[3] = {0, 0, 0};
  for (NodeId v = 0; v < 20; ++v) {
    ChurnEngine eng(g, 2, Pipeline::kAcLmst);
    ++seen[static_cast<int>(role_of(eng, v))];
    eng.apply(fail(v));
    expect_valid(eng, "victim " + std::to_string(v));
  }
  EXPECT_GE(seen[static_cast<int>(Role::kMember)], 1u);
  EXPECT_GE(seen[static_cast<int>(Role::kGateway)], 1u);
  EXPECT_GE(seen[static_cast<int>(Role::kHead)], 1u);
}

TEST(Repair, DisconnectingFailureIsReported) {
  // Path graph: the middle node is a cut vertex.
  const Graph g = Graph::from_edges(
      3, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}});
  ChurnEngine eng(g, 1, Pipeline::kAcLmst);
  const ChurnEventReport rep = eng.apply(fail(1));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(eng.num_components(), 2u);
  expect_valid(eng);
  // Both singleton components end up headed.
  EXPECT_EQ(eng.clustering().heads, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(eng.clustering().dist_to_head[0], 0u);
  EXPECT_EQ(eng.clustering().dist_to_head[2], 0u);
}

TEST(Repair, PartitionRepairsEachComponent) {
  // Two 5-node paths bridged by node 10; k = 2. Removing the bridge
  // partitions the network into two components, each of which must keep a
  // valid dominated clustering and backbone.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < 5; ++v) {
    edges.push_back({v, v + 1});
    edges.push_back({static_cast<NodeId>(5 + v), static_cast<NodeId>(6 + v)});
  }
  edges.push_back({4, 10});
  edges.push_back({10, 5});
  ChurnEngine eng(Graph::from_edges(11, edges), 2, Pipeline::kAcLmst);

  const ChurnEventReport rep = eng.apply(fail(10));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(eng.num_components(), 2u);
  expect_valid(eng);
  for (NodeId v = 0; v < 10; ++v) {
    const NodeId h = eng.clustering().head_of[v];
    ASSERT_NE(h, kInvalidNode);
    EXPECT_NE(eng.clustering().dist_to_head[v], kUnreachable);
    EXPECT_EQ(h < 5, v < 5);  // heads stay on the member's side of the cut
  }
}

TEST(Repair, RejectsBadVictim) {
  ChurnEngine eng(make_network(1107, 50), 1, Pipeline::kAcLmst);
  EXPECT_THROW(eng.apply(fail(9999)), InvalidArgument);
}

TEST(Repair, GatewayFailureKeepsCdsConnectedSeed29) {
  // Under the paper's "only the dead node's cluster re-elects" rule a
  // survivor here drifts beyond k of its head and the heads plus gateways
  // fall apart; strict domination re-affiliates it instead.
  ChurnEngine eng(make_network(29, 90, 8.0), 2, Pipeline::kNcMesh);
  const ChurnEventReport rep = eng.apply(fail(22));
  EXPECT_EQ(rep.component_delta, 0);
  expect_valid(eng);
}

// ---------------------------------------------------------------------------
// Joins (switch-on): fail a node, then bring it back with chosen links.

/// The largest id that is not a head and not in \p keep.
NodeId rejoin_candidate(const ChurnEngine& eng,
                        const std::vector<NodeId>& keep) {
  for (auto v = static_cast<NodeId>(eng.graph().capacity()); v-- > 0;) {
    if (role_of(eng, v) != Role::kHead &&
        std::find(keep.begin(), keep.end(), v) == keep.end()) {
      return v;
    }
  }
  return kInvalidNode;
}

TEST(Join, MemberJoinAdoptsNearestHead) {
  ChurnEngine eng(make_network(1401, 90), 2, Pipeline::kAcLmst);
  // Attach directly to a clusterhead: the newcomer is 1 hop from it.
  const NodeId head = eng.clustering().heads.front();
  const NodeId x = rejoin_candidate(eng, {head});
  eng.apply(fail(x));
  const ChurnEventReport rep = eng.apply(join(x, {head}));
  EXPECT_EQ(rep.new_heads, 0u);
  EXPECT_EQ(eng.clustering().head_of[x], head);
  EXPECT_EQ(eng.clustering().dist_to_head[x], 1u);
  expect_valid(eng);
}

TEST(Join, GrownGraphHasNewNodeEdges) {
  ChurnEngine eng(make_network(1402, 90), 2, Pipeline::kAcLmst);
  const NodeId a = 0, b = 1;
  const NodeId x = rejoin_candidate(eng, {a, b});
  eng.apply(fail(x));
  eng.apply(join(x, {a, b}));
  EXPECT_EQ(eng.graph().num_alive(), 90u);
  EXPECT_EQ(eng.graph().degree(x), 2u);
  EXPECT_TRUE(eng.graph().has_edge(x, a));
  EXPECT_TRUE(eng.graph().has_edge(x, b));
  expect_valid(eng);
}

TEST(Join, HeadOnlyWhenBeyondK) {
  // Path 0-1-2-3-4 at k = 1: heads {0, 2, 4}. Node 4 switches off, then on
  // again attached to node 3 only: head 2 is 2 > k hops away, so the
  // newcomer must become a head itself.
  const Graph g = Graph::from_edges(
      5, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3},
                                                {3, 4}});
  ChurnEngine eng(g, 1, Pipeline::kAcLmst);
  eng.apply(fail(4));
  const ChurnEventReport rep = eng.apply(join(4, {3}));
  EXPECT_EQ(rep.new_heads, 1u);
  EXPECT_TRUE(eng.clustering().is_head(4));
  const auto& bh = eng.backbone().heads;
  EXPECT_TRUE(std::binary_search(bh.begin(), bh.end(), NodeId{4}));
  expect_valid(eng);
}

TEST(Join, PreservesIndependentSetInvariant) {
  ChurnEngine eng(make_network(1403, 90), 2, Pipeline::kAcLmst);
  for (const NodeId anchor : {NodeId{0}, NodeId{5}, NodeId{10}}) {
    const NodeId x = rejoin_candidate(eng, {anchor});
    eng.apply(fail(x));
    eng.apply(join(x, {anchor}));
    expect_valid(eng, "anchor " + std::to_string(anchor));
    // Whatever the outcome, heads stay a k-hop independent set.
    const auto d = all_pairs_hops(eng.graph().snapshot());
    const std::vector<NodeId>& heads = eng.clustering().heads;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      for (std::size_t j = i + 1; j < heads.size(); ++j) {
        EXPECT_GT(d[heads[i]][heads[j]], eng.k());
      }
    }
  }
}

TEST(Join, MemberJoinWithoutNewAdjacencyKeepsBackbone) {
  // Attach to a head and one of its 1-hop members: every new edge stays
  // inside that cluster and shortcuts nothing, so the gateways and virtual
  // links stay exactly as they were before the join.
  ChurnEngine eng(make_network(1404, 90), 2, Pipeline::kAcLmst);
  const NodeId head = eng.clustering().heads.front();
  const NodeId x = rejoin_candidate(eng, {head});
  eng.apply(fail(x));
  NodeId nb = kInvalidNode;
  for (NodeId w : eng.graph().neighbors(head)) {
    if (eng.clustering().head_of[w] == head) {
      nb = w;
      break;
    }
  }
  ASSERT_NE(nb, kInvalidNode);
  const Backbone before = eng.backbone();
  eng.apply(join(x, {head, nb}));
  EXPECT_EQ(eng.clustering().head_of[x], head);
  EXPECT_EQ(eng.backbone().gateways, before.gateways);
  EXPECT_EQ(eng.backbone().virtual_links, before.virtual_links);
  expect_valid(eng);
}

TEST(Join, BridgingJoinTriggersPhase2) {
  // The newcomer links two nodes of different clusters: both clusters'
  // heads re-run their neighbor selection.
  ChurnEngine eng(make_network(1405, 90), 2, Pipeline::kAcLmst);
  const NodeId x = rejoin_candidate(eng, {});
  eng.apply(fail(x));
  const std::vector<NodeId>& head_of = eng.clustering().head_of;
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId v : eng.graph().alive_nodes()) {
    if (a == kInvalidNode) {
      a = v;
    } else if (head_of[v] != head_of[a]) {
      b = v;
      break;
    }
  }
  ASSERT_NE(b, kInvalidNode);
  const ChurnEventReport rep = eng.apply(join(x, {a, b}));
  EXPECT_GE(rep.heads_resweeped, 2u);
  expect_valid(eng);
}

TEST(Join, RejectsBadInput) {
  ChurnEngine eng(make_network(1406, 50), 1, Pipeline::kAcLmst);
  const NodeId x = rejoin_candidate(eng, {});
  eng.apply(fail(x));
  const std::size_t components = eng.num_components();
  EXPECT_THROW(eng.apply(join(x, {9999})), InvalidArgument);
  // A join without links is valid churn: a new one-node component.
  const ChurnEventReport rep = eng.apply(join(x, {}));
  EXPECT_EQ(rep.component_delta, 1);
  EXPECT_EQ(eng.num_components(), components + 1);
  EXPECT_TRUE(eng.clustering().is_head(x));
  expect_valid(eng);
}

TEST(Join, SequenceOfJoinsStaysValid) {
  ChurnEngine eng(make_network(1407, 70), 2, Pipeline::kAcLmst);
  for (NodeId v = 60; v < 70; ++v) eng.apply(fail(v));
  Rng rng(8);
  for (NodeId v = 60; v < 70; ++v) {
    const std::vector<NodeId> alive = eng.graph().alive_nodes();
    eng.apply(join(v, {alive[rng.uniform_int(alive.size())]}));
    expect_valid(eng, "join " + std::to_string(v));
  }
  EXPECT_EQ(eng.graph().num_alive(), 70u);
}

TEST(Integration, BackboneSurvivesFailureStorm) {
  // Ten random nodes fail one after another on one engine; the backbone
  // stays valid after every repair (per component if one partitions).
  ChurnEngine eng(make_network(3002, 120, 10.0), 2, Pipeline::kAcLmst);
  Rng rng(3002);
  for (int i = 0; i < 10; ++i) {
    const std::vector<NodeId> alive = eng.graph().alive_nodes();
    eng.apply(fail(alive[rng.uniform_int(alive.size())]));
    expect_valid(eng, "failure " + std::to_string(i));
  }
  EXPECT_EQ(eng.graph().num_alive(), 110u);
}

// ---------------------------------------------------------------------------
// Property sweep: any single failure, and a failure followed by a join, on
// generator networks. G-MST has no local repair scope (ChurnEngine rejects
// it), so its instances run the same policy through the full-recompute
// ReferenceChurnMaintainer with a per-component from-scratch backbone.

using Param = std::tuple<Hops, Pipeline, std::uint64_t>;

/// One network under maintenance by whichever implementation supports the
/// pipeline.
class Maintained {
 public:
  Maintained(const Graph& g, Hops k, Pipeline p) {
    if (p == Pipeline::kGmst) {
      ref_.emplace(g, k, p);
    } else {
      eng_.emplace(g, k, p);
    }
  }

  void apply(const ChurnEvent& e) {
    if (eng_) {
      eng_->apply(e);
    } else {
      ref_->apply(e);
    }
  }

  const DynamicGraph& graph() const {
    return eng_ ? eng_->graph() : ref_->graph();
  }

  void expect_valid(const std::string& label) {
    if (eng_) {
      khop::expect_valid(*eng_, label);
    } else {
      expect_valid_state(ref_->graph(), ref_->k(), ref_->head_of(),
                         ref_->dist_to_head(), ref_->rebuild_backbone(),
                         label);
    }
  }

 private:
  std::optional<ChurnEngine> eng_;
  std::optional<ReferenceChurnMaintainer> ref_;
};

class FailureProperty : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [k, pipeline, seed] = GetParam();
    graph_ = make_network(seed, 90, 8.0);
  }

  Graph graph_;
};

TEST_P(FailureProperty, EveryRepairableFailureValidates) {
  const auto [k, pipeline, seed] = GetParam();
  Rng rng(seed ^ 0xfa11);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const auto victim = static_cast<NodeId>(rng.uniform_int(90));
    Maintained m(graph_, k, pipeline);
    m.apply(fail(victim));
    m.expect_valid("victim " + std::to_string(victim));
  }
}

TEST_P(FailureProperty, FailureThenJoinStaysValid) {
  const auto [k, pipeline, seed] = GetParam();
  Rng rng(seed ^ 0x7015);
  Maintained m(graph_, k, pipeline);
  const auto victim = static_cast<NodeId>(rng.uniform_int(90));
  m.apply(fail(victim));
  m.expect_valid("failure");
  const std::vector<NodeId> alive = m.graph().alive_nodes();
  m.apply(join(victim, {alive[rng.uniform_int(alive.size())]}));
  m.expect_valid("join");
}

std::string param_name(const ::testing::TestParamInfo<Param>& pinfo) {
  const auto [k, pipeline, seed] = pinfo.param;
  std::string name = "k" + std::to_string(k) + "_" +
                     std::string(pipeline_name(pipeline)) + "_s" +
                     std::to_string(seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FailureProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Pipeline::kNcMesh,
                                         Pipeline::kAcLmst, Pipeline::kGmst),
                       ::testing::Values(41u, 42u)),
    param_name);

// ---------------------------------------------------------------------------
// A rejected event leaves no trace: it throws InvalidArgument before any
// state, counters included, changes, and the next valid event applies.

class RejectedEvent : public ::testing::Test {
 protected:
  RejectedEvent() : eng_(make_network(1501, 60), 2, Pipeline::kAcLmst) {
    eng_.apply(fail(5));
  }

  void expect_rejected(const ChurnEvent& e) {
    const ChurnCounters before = eng_.stats();
    const std::size_t components = eng_.num_components();
    EXPECT_THROW(eng_.apply(e), InvalidArgument);
    EXPECT_TRUE(ChurnCounters(eng_.stats()) == before);
    EXPECT_EQ(eng_.num_components(), components);
    expect_valid(eng_, "after rejection");
    const NodeId w = eng_.graph().alive_nodes().front();
    eng_.apply(join(5, {w}));
    expect_valid(eng_, "next valid event");
  }

  ChurnEngine eng_;
};

TEST_F(RejectedEvent, DuplicateJoinNeighbor) {
  const NodeId w = eng_.graph().alive_nodes().front();
  expect_rejected(join(5, {w, w}));
}

TEST_F(RejectedEvent, SelfLinkUp) {
  ChurnEvent e;
  e.type = ChurnEventType::kLinkUp;
  e.a = 7;
  e.b = 7;
  expect_rejected(e);
}

TEST_F(RejectedEvent, OutOfRangeFail) { expect_rejected(fail(9999)); }

TEST(DynamicGraph, RejectedJoinLeavesGraphUntouched) {
  DynamicGraph g(Graph::from_edges(
      4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}}));
  g.remove_node(3);
  const std::vector<NodeId> dup{0, 2, 0};
  EXPECT_THROW(g.add_node(3, dup), InvalidArgument);
  EXPECT_EQ(g.check_consistency(), "");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.alive(3));
  const std::vector<NodeId> ok{2, 0};
  g.add_node(3, ok);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(3, 0) && g.has_edge(3, 2));
}

}  // namespace
}  // namespace khop
